package server

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
)

// seriesKeys lists the registry's series as name plus label string.
func seriesKeys(reg *obs.Registry) []string {
	var keys []string
	for _, m := range reg.Snapshot() {
		keys = append(keys, m.Name+m.LabelString())
	}
	return keys
}

// TestRegistrySeriesBounded: how many series the registry holds does not
// depend on how many distinct statements the server has run. The
// statements differ the way plan_cold's do, by one float literal, so each
// compiles to its own plan and its own job names.
func TestRegistrySeriesBounded(t *testing.T) {
	srv, addr := startTestServer(t, nil)
	cli := dialTest(t, addr)
	var after20 []string
	for i := 1; i <= 200; i++ {
		sql := fmt.Sprintf("SELECT s_nationkey, count(*) * 1.%06d AS n FROM supplier GROUP BY s_nationkey", i)
		if _, err := cli.Query(sql); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if i == 20 {
			after20 = seriesKeys(srv.Registry())
		}
	}
	after200 := seriesKeys(srv.Registry())
	if len(after200) != len(after20) {
		extra := newKeys(after20, after200)
		if len(extra) > 5 {
			extra = append(extra[:5], "...")
		}
		t.Fatalf("%d series after statement 20, %d after statement 200; new ones include:\n%s",
			len(after20), len(after200), strings.Join(extra, "\n"))
	}
	jobs := srv.Registry().Value("ysmart_engine_jobs_total")
	for _, m := range srv.Registry().Snapshot() {
		if m.Name == "ysmart_costmodel_drift_ratio" && (m.Hist == nil || float64(m.Hist.Count) != jobs) {
			t.Errorf("drift ratio %+v: want a histogram with one observation per job (%v)", m, jobs)
		}
	}
}

// newKeys returns the keys of after that before lacks.
func newKeys(before, after []string) []string {
	had := make(map[string]bool, len(before))
	for _, k := range before {
		had[k] = true
	}
	var out []string
	for _, k := range after {
		if !had[k] {
			out = append(out, k)
		}
	}
	return out
}

// soleSession returns the server's one live session.
func soleSession(t *testing.T, srv *Server) *session {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.sessions) != 1 {
		t.Fatalf("%d live sessions, want 1", len(srv.sessions))
	}
	for _, s := range srv.sessions {
		return s
	}
	return nil
}

// TestSessionDropsQueryFiles: whatever way a statement ends — an answer, a
// run error, a timeout, or an answer served from reuse artifacts — the
// session's DFS afterwards holds exactly the base tables it installed at
// connect. Each statement is checked to have written files of its own
// first (the registry's DFS write count moves), so an empty DFS is not
// trivially met.
func TestSessionDropsQueryFiles(t *testing.T) {
	_, lines := fixture(t)
	base := make(map[string]bool, len(lines))
	for name := range lines {
		base[translator.TablePath(name)] = true
	}

	// query runs sql and checks it ended with SQLSTATE code ("" = an
	// answer), wrote at least one file, and left the base tables and
	// nothing else: every one still reads, and Retain(base) finds no
	// other file to remove.
	query := func(t *testing.T, srv *Server, cli *Client, label, sql, code string) {
		t.Helper()
		writes := srv.Registry().Value("ysmart_dfs_writes_total")
		_, err := cli.Query(sql)
		var srvErr *ServerError
		switch {
		case code == "" && err != nil:
			t.Fatalf("%s: %v", label, err)
		case code != "" && !(errors.As(err, &srvErr) && srvErr.Code == code):
			t.Fatalf("%s: err = %v, want SQLSTATE %s", label, err, code)
		}
		if srv.Registry().Value("ysmart_dfs_writes_total") == writes {
			t.Fatalf("%s wrote no file", label)
		}
		dfs := soleSession(t, srv).dfs
		for path := range base {
			if _, err := dfs.Read(path); err != nil {
				t.Errorf("after %s: base table %s: %v", label, path, err)
			}
		}
		if n := dfs.Retain(base); n != 0 {
			t.Errorf("after %s the session DFS held %d file(s) besides its base tables", label, n)
		}
	}
	oneToOne := func(c *Config) {
		c.Mode = translator.OneToOne
		c.Workers = 1
	}

	t.Run("answer and run error", func(t *testing.T) {
		srv, addr := startTestServer(t, oneToOne)
		// A job that fails after the ones it depends on wrote their files.
		p, err := srv.Cache().Get(queries.Q17)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range p.Translation.Jobs {
			if j.Output == p.Translation.Output {
				j.Inputs[0].Mapper = mapreduce.MapperFunc(func(string, mapreduce.Emit) error {
					return errors.New("planted mapper failure")
				})
			}
		}
		cli := dialTest(t, addr)
		query(t, srv, cli, "Q21", queries.Q21, "")
		query(t, srv, cli, "a failing Q17", queries.Q17, sqlstateInternalError)
		query(t, srv, cli, "Q21 after the failure", queries.Q21, "")
	})

	t.Run("timeout", func(t *testing.T) {
		// The first job's end outlasts the deadline: the run stops at its
		// next work item with the first job's output written.
		const timeout = time.Second
		var hold sync.Once
		srv, addr := startTestServer(t, func(c *Config) {
			oneToOne(c)
			c.QueryTimeout = timeout
			c.Logger = obs.NewLogger(writerFunc(func(p []byte) (int, error) {
				if bytes.Contains(p, []byte(`"event":"job.done"`)) {
					hold.Do(func() { time.Sleep(timeout + 100*time.Millisecond) })
				}
				return len(p), nil
			}), obs.LevelInfo)
		})
		query(t, srv, dialTest(t, addr), "a timed-out Q21", queries.Q21, sqlstateQueryCanceled)
	})

	t.Run("reuse", func(t *testing.T) {
		srv, addr := startTestServer(t, func(c *Config) { c.Reuse = true })
		cli := dialTest(t, addr)
		query(t, srv, cli, "Q21 recording artifacts", queries.Q21, "")
		jobs := srv.Registry().Value("ysmart_engine_jobs_total")
		// A full-chain hit runs no job: its only write is the restore/
		// artifact it installs and reads the result from.
		query(t, srv, cli, "Q21 served from the store", queries.Q21, "")
		if got := srv.Registry().Value("ysmart_engine_jobs_total"); got != jobs {
			t.Errorf("the repeated Q21 ran %v jobs, want a full-chain hit", got-jobs)
		}
	})
}

// gcPolicyChild is the argument that makes TestGCPolicy's subprocess build
// a server and report the GC percent instead of testing.
const gcPolicyChild = "gc-policy-child"

// TestGCPolicy runs the test binary again, with GOGC unset and with
// GOGC=150: after New the process's GC percent is 400 unless GOGC was in
// the environment, whose value then stands, and the server logs one
// server.gc_policy event naming the percent and its source.
func TestGCPolicy(t *testing.T) {
	if len(flag.Args()) == 1 && flag.Args()[0] == gcPolicyChild {
		var log bytes.Buffer
		_, err := New(Config{
			Catalog: queries.Catalog(),
			Cluster: mapreduce.SmallCluster,
			Logger:  obs.NewLogger(&log, obs.LevelInfo),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		percent := debug.SetGCPercent(-1)
		debug.SetGCPercent(percent)
		fmt.Printf("percent=%d\n%s", percent, log.String())
		return
	}
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOGC=") {
			env = append(env, kv)
		}
	}
	for _, c := range []struct {
		env, percent, event string
	}{
		{"", "percent=400", `{"level":"info","event":"server.gc_policy","percent":400,"source":"server"}`},
		{"GOGC=150", "percent=150", `{"level":"info","event":"server.gc_policy","percent":150,"source":"GOGC"}`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestGCPolicy$", "-test.count=1", gcPolicyChild)
		cmd.Env = env
		if c.env != "" {
			cmd.Env = append(append([]string(nil), env...), c.env)
		}
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOGC %q: child failed: %v\n%s", c.env, err, out)
		}
		var events []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.Contains(line, "server.gc_policy") {
				events = append(events, line)
			}
		}
		if !bytes.Contains(out, []byte(c.percent+"\n")) || len(events) != 1 || events[0] != c.event {
			t.Errorf("GOGC %q: child printed\n%s\nwant %s and the one event %s", c.env, out, c.percent, c.event)
		}
	}
}

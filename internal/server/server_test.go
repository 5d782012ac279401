package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/plan"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
)

// startTestServer boots a server on a free port over the shared fixture and
// returns it with its bound address. mutate tweaks the config before New.
func startTestServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	_, lines := fixture(t)
	cfg := Config{
		Catalog:     queries.Catalog(),
		Cluster:     func() *mapreduce.Cluster { return mapreduce.SmallCluster() },
		MaxInflight: 2,
		MaxQueued:   16,
		CacheSize:   16,
		Registry:    obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg, lines)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Shutdown(10 * time.Second) })
	return srv, addr
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	cli, err := Dial(addr, "test", "ysmart", 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestServerEndToEnd runs a workload query over a real TCP connection and
// checks the rows against the DBMS oracle.
func TestServerEndToEnd(t *testing.T) {
	_, addr := startTestServer(t, nil)
	cli := dialTest(t, addr)

	if v := cli.Parameter("server_version"); !strings.Contains(v, "ysmart") {
		t.Fatalf("server_version = %q, want an ysmart-tagged version", v)
	}

	res, err := cli.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "cid" || res.Columns[1] != "click_count" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if want := fmt.Sprintf("SELECT %d", len(res.Rows)); res.Tag != want {
		t.Fatalf("command tag = %q, want %q", res.Tag, want)
	}
	diffLines(t, "Q-AGG wire vs oracle", wireLines(res), oracleWireLines(t, queries.QAGG))
}

// TestServerPlanCacheAcrossSessions checks the second connection's identical
// query hits the shared cache and returns byte-identical rows.
func TestServerPlanCacheAcrossSessions(t *testing.T) {
	srv, addr := startTestServer(t, nil)

	cli1 := dialTest(t, addr)
	res1, err := cli1.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	cli2 := dialTest(t, addr)
	res2, err := cli2.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	diffLines(t, "cached vs uncached over the wire", wireLines(res2), wireLines(res1))

	_, hits, misses, _ := srv.Cache().Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("cache hits/misses = %v/%v, want 1/1", hits, misses)
	}
	if got := srv.Registry().Value("ysmart_server_queries_total"); got != 2 {
		t.Fatalf("queries_total = %v, want 2", got)
	}
}

// TestServerErrorsKeepConnectionUsable sends bad SQL, checks the SQLSTATE,
// then reuses the same connection.
func TestServerErrorsKeepConnectionUsable(t *testing.T) {
	srv, addr := startTestServer(t, nil)
	cli := dialTest(t, addr)

	_, err := cli.Query("SELECT bogus FROM nowhere")
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("bad SQL: err = %v, want *ServerError", err)
	}
	if srvErr.Code != sqlstateSyntaxError {
		t.Fatalf("SQLSTATE = %s, want %s", srvErr.Code, sqlstateSyntaxError)
	}
	if got := srv.Registry().Value("ysmart_server_query_errors_total"); got != 1 {
		t.Fatalf("query_errors_total = %v, want 1", got)
	}

	res, err := cli.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("query after error: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query after error returned no rows")
	}
}

// TestServerEngineFaultIsInternalError: a statement that compiles but cannot
// run — its table is in the catalog with no dataset registered, so the
// first job's DFS read fails — is the server's fault, not a syntax error,
// and leaves the connection usable.
func TestServerEngineFaultIsInternalError(t *testing.T) {
	srv, addr := startTestServer(t, nil)
	srv.mu.Lock()
	delete(srv.tables, "clicks")
	srv.mu.Unlock()
	cli := dialTest(t, addr)

	_, err := cli.Query(queries.QAGG)
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("query over a missing dataset: err = %v, want *ServerError", err)
	}
	if srvErr.Code != sqlstateInternalError || !strings.Contains(srvErr.Message, "not found") {
		t.Fatalf("got %v, want SQLSTATE %s naming the missing file", srvErr, sqlstateInternalError)
	}
	res, err := cli.Query(queries.Q17)
	if err != nil {
		t.Fatalf("query after the engine fault: %v", err)
	}
	diffLines(t, "Q17 after the engine fault", wireLines(res), oracleWireLines(t, queries.Q17))
}

// TestServerRejectsInvalidCluster: a cluster model no engine accepts fails
// New, instead of every later connection.
func TestServerRejectsInvalidCluster(t *testing.T) {
	_, lines := fixture(t)
	cfg := Config{
		Catalog: queries.Catalog(),
		Cluster: func() *mapreduce.Cluster {
			c := mapreduce.SmallCluster()
			c.Faults = &mapreduce.FaultPlan{NodeFailures: []mapreduce.NodeFailure{{Node: 9, At: 1}}}
			return c
		},
	}
	if _, err := New(cfg, lines); err == nil || !strings.Contains(err.Error(), "node 9 out of range") {
		t.Fatalf("New with a fault plan naming node 9 of a one-node cluster: err = %v", err)
	}
}

// TestServerSessionCommands checks psql's housekeeping statements are
// accepted as no-ops and empty queries get EmptyQueryResponse.
func TestServerSessionCommands(t *testing.T) {
	_, addr := startTestServer(t, nil)
	cli := dialTest(t, addr)

	for stmt, wantTag := range map[string]string{
		"SET client_min_messages = warning": "SET",
		"BEGIN":                             "BEGIN",
		"COMMIT":                            "COMMIT",
		"ROLLBACK":                          "ROLLBACK",
	} {
		res, err := cli.Query(stmt)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		if res.Tag != wantTag {
			t.Fatalf("%q tag = %q, want %q", stmt, res.Tag, wantTag)
		}
	}
	res, err := cli.Query(" ;; ")
	if err != nil {
		t.Fatalf("empty query: %v", err)
	}
	if res.Tag != "" || len(res.Rows) != 0 {
		t.Fatalf("empty query result = %+v, want empty", res)
	}
}

func TestServerSessionsSnapshot(t *testing.T) {
	srv, addr := startTestServer(t, nil)
	cli := dialTest(t, addr)
	if _, err := cli.Query(queries.QAGG); err != nil {
		t.Fatalf("query: %v", err)
	}

	sessions := srv.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	s := sessions[0]
	if s.User != "test" || s.Database != "ysmart" {
		t.Fatalf("session identity = %s@%s, want test@ysmart", s.User, s.Database)
	}
	if s.Queries != 1 || s.Errors != 0 {
		t.Fatalf("session counters = %+v", s)
	}

	cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session lingered after Terminate")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerConcurrentClients drives several connections at once through a
// small admission window; every query must succeed and match.
func TestServerConcurrentClients(t *testing.T) {
	srv, addr := startTestServer(t, func(cfg *Config) { cfg.MaxInflight = 2; cfg.MaxQueued = 32 })
	want := oracleWireLines(t, queries.QAGG)

	const clients = 5
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(addr, "test", "ysmart", 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cli.Close()
			for j := 0; j < 3; j++ {
				res, err := cli.Query(queries.QAGG)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				got := wireLines(res)
				if len(got) != len(want) {
					t.Errorf("row count %d, want %d", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := srv.Registry().Value("ysmart_server_queries_total"); got != clients*3 {
		t.Fatalf("queries_total = %v, want %d", got, clients*3)
	}
	if _, ok := srv.Registry().Quantile("ysmart_server_admission_wait_seconds", 0.5); !ok {
		t.Fatal("admission wait histogram has no observations")
	}
}

// TestServerSharedPlanBackToBack: two sessions issue one statement 200 times
// each with no pause between a reply and the next request, so runs of the one
// cached translation overlap all the time, and a session re-asks for the
// plan the moment its previous reply lands. Every reply must match the
// oracle, and the statement must have been compiled for the first lookups
// only.
func TestServerSharedPlanBackToBack(t *testing.T) {
	srv, addr := startTestServer(t, nil)
	sql := queries.Named()["Q-CSA"]
	want := oracleWireLines(t, sql)

	const sessions, rounds = 2, 200
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cli, err := Dial(addr, "test", "ysmart", 5*time.Second)
			if err != nil {
				t.Errorf("session %d dial: %v", s, err)
				return
			}
			defer cli.Close()
			for i := 0; i < rounds; i++ {
				res, err := cli.Query(sql)
				if err != nil {
					t.Errorf("session %d query %d: %v", s, i, err)
					return
				}
				if got := wireLines(res); !reflect.DeepEqual(got, want) {
					t.Errorf("session %d query %d: %d rows differ from the oracle's %d", s, i, len(got), len(want))
					return
				}
			}
		}(s)
	}
	wg.Wait()

	entries, hits, misses, _ := srv.Cache().Stats()
	if entries != 1 || misses < 1 || misses > sessions || hits+misses != sessions*rounds {
		t.Fatalf("cache: %d entries, %v hits, %v misses; want 1 entry built by at most %d first lookups of %d",
			entries, hits, misses, sessions, sessions*rounds)
	}
}

// TestServerQueryTimeout forces every query past its deadline: each run stops
// at its first check, and by the time the client reads SQLSTATE 57014 the
// query's admission slot is free again, so the session stays orderly and
// the drain has nothing to wait for.
func TestServerQueryTimeout(t *testing.T) {
	srv, addr := startTestServer(t, func(cfg *Config) { cfg.QueryTimeout = time.Nanosecond })
	cli := dialTest(t, addr)

	for i := 0; i < 2; i++ {
		_, err := cli.Query(queries.QAGG)
		var srvErr *ServerError
		if !errors.As(err, &srvErr) || srvErr.Code != sqlstateQueryCanceled {
			t.Fatalf("query %d: err = %v, want SQLSTATE %s", i, err, sqlstateQueryCanceled)
		}
		if n := srv.Admission().Inflight(); n != 0 {
			t.Fatalf("query %d: %d admission slots held when its 57014 arrived", i, n)
		}
	}
	if got := srv.Registry().Value("ysmart_server_query_timeouts_total"); got != 2 {
		t.Fatalf("query_timeouts_total = %v, want 2", got)
	}
	if !srv.Shutdown(10 * time.Second) {
		t.Fatal("shutdown did not drain after timed-out runs")
	}
}

// TestShutdownCancelsInflight: a drain that times out cancels the run still
// in flight. A cold Q21 (one job per operator, one worker) is held right
// after its first job until Shutdown(1ms) has given up waiting and cancelled
// the server's base context; the run then stops before its next job, the
// chain never completes, Shutdown returns at once, and the client reads
// 57P01 or the closed connection — never a hang.
func TestShutdownCancelsInflight(t *testing.T) {
	firstJob, resume := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	srv, addr := startTestServer(t, func(c *Config) {
		c.Mode = translator.OneToOne
		c.Workers = 1
		c.Logger = obs.NewLogger(writerFunc(func(p []byte) (int, error) {
			if bytes.Contains(p, []byte(`"event":"job.done"`)) {
				hold.Do(func() { close(firstJob); <-resume })
			}
			return len(p), nil
		}), obs.LevelInfo)
	})
	cli := dialTest(t, addr)
	_ = cli.conn.SetDeadline(time.Now().Add(10 * time.Second))
	reply := make(chan error, 1)
	go func() {
		_, err := cli.Query(queries.Q21)
		reply <- err
	}()
	select {
	case <-firstJob:
	case err := <-reply:
		t.Fatalf("Q21 answered before its first job finished: %v", err)
	}

	start := time.Now()
	drained := make(chan bool, 1)
	go func() { drained <- srv.Shutdown(time.Millisecond) }()
	select {
	case <-srv.ctx.Done():
	case <-time.After(10 * time.Second):
		t.Error("Shutdown never cancelled the run in flight")
	}
	close(resume)
	if <-drained {
		t.Error("Shutdown reports a drain, with a run in flight past its timeout")
	}
	took := time.Since(start)
	t.Logf("Shutdown(1ms) returned after %s", took)
	if took > 5*time.Second {
		t.Errorf("Shutdown(1ms) took %s", took)
	}
	if n := srv.Registry().Value("ysmart_engine_chains_total"); n != 0 {
		t.Errorf("%v chains completed: the run was not stopped", n)
	}
	err := <-reply
	var srvErr *ServerError
	switch {
	case errors.As(err, &srvErr) && srvErr.Code == sqlstateShutdown:
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
	default:
		t.Errorf("client read %v, want SQLSTATE %s or EOF", err, sqlstateShutdown)
	}
	if n := srv.Admission().Inflight(); n != 0 {
		t.Errorf("%d admission slots held after Shutdown", n)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// panickyCatalog is the workload catalog, except that looking up the table
// "boom" panics.
type panickyCatalog struct{ plan.Catalog }

func (c panickyCatalog) Table(name string) (*exec.Schema, bool) {
	if name == "boom" {
		panic("catalog lookup of boom")
	}
	return c.Catalog.Table(name)
}

// TestServerPanicCostsOneSession: a panic in the engine's user code costs
// one query (XX000, the session goes on); a panic anywhere else on a
// session's goroutine costs that session — a best-effort XX000, then the
// connection closes — and never the server: a second connection still
// answers, and no admission slot is held.
func TestServerPanicCostsOneSession(t *testing.T) {
	srv, addr := startTestServer(t, func(c *Config) { c.Catalog = panickyCatalog{queries.Catalog()} })

	// A mapper that panics, planted in a cached plan before any run.
	const sql = "SELECT cid, count(*) AS n FROM clicks GROUP BY cid"
	p, err := srv.Cache().Get(sql)
	if err != nil {
		t.Fatal(err)
	}
	in := &p.Translation.Jobs[0].Inputs[0]
	in.Mapper = mapreduce.MapperFunc(func(string, mapreduce.Emit) error { panic("mapper exploded") })
	cli := dialTest(t, addr)
	_, err = cli.Query(sql)
	var srvErr *ServerError
	if !errors.As(err, &srvErr) || srvErr.Code != sqlstateInternalError || !strings.Contains(srvErr.Message, "panic: mapper exploded") {
		t.Fatalf("panicking mapper: err = %v, want SQLSTATE %s naming the panic", err, sqlstateInternalError)
	}
	if _, err := cli.Query(queries.QAGG); err != nil {
		t.Fatalf("query after a panicking mapper: %v", err)
	}

	_, err = cli.Query("SELECT x FROM boom")
	if !(errors.As(err, &srvErr) && srvErr.Code == sqlstateInternalError) && !errors.Is(err, io.EOF) {
		t.Fatalf("panicking catalog: err = %v, want SQLSTATE %s or EOF", err, sqlstateInternalError)
	}
	if _, err := cli.Query(queries.QAGG); err == nil {
		t.Fatal("the session that panicked still answers")
	}

	res, err := dialTest(t, addr).Query(queries.QAGG)
	if err != nil {
		t.Fatalf("second connection after a session panic: %v", err)
	}
	diffLines(t, "Q-AGG after a session panic", wireLines(res), oracleWireLines(t, queries.QAGG))
	if n := srv.Admission().Inflight(); n != 0 {
		t.Errorf("%d admission slots held after the panics", n)
	}
}

func TestServerShutdownRefusesNewConnections(t *testing.T) {
	srv, addr := startTestServer(t, nil)
	cli := dialTest(t, addr)
	if _, err := cli.Query(queries.QAGG); err != nil {
		t.Fatalf("query: %v", err)
	}
	if !srv.Shutdown(10 * time.Second) {
		t.Fatal("shutdown did not drain an idle server")
	}
	if _, err := Dial(addr, "test", "ysmart", time.Second); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

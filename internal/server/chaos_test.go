package server

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ysmart/internal/queries"
)

// TestServerChaosQuiesce asserts the serving stack's concurrency invariants
// by execution: clients reconnect, time out, overflow the admission queue,
// send bad SQL and hang up mid-query while the clicks dataset is swapped
// under them, and afterwards every resource a query took is back — no
// admission slot, no session, no goroutine, and a reuse store whose byte
// accounting matches its entries. A deadlock shows as the test timing out
// with every stack printed; a data race shows under -race. A timed-out run
// stops at its next work item and a drain cancels what is left, so all of
// this holds the moment Shutdown returns: nothing is polled.
func TestServerChaosQuiesce(t *testing.T) {
	const (
		seed       = 22
		clients    = 8
		reconnects = 4
		opsPerConn = 6
		capBytes   = 16 << 10 // under half of what the queries materialize: the cap evicts
		badSQL     = "SELECT bogus FROM nowhere"
	)
	// Two versions of clicks, and the oracle's answer to every workload
	// query over each (equal for the TPC-H queries).
	_, lines := fixture(t)
	halfRows := halvedClicks(t)
	versions := [2][]string{lines["clicks"], EncodeTables(halfRows)["clicks"]}
	var sqls []string
	for _, sql := range queries.Named() {
		sqls = append(sqls, sql)
	}
	sort.Strings(sqls)
	want := make(map[string][2]string, len(sqls))
	for _, sql := range sqls {
		want[sql] = [2]string{
			strings.Join(oracleWireLines(t, sql), "\n"),
			strings.Join(oracleWireLinesOver(t, sql, halfRows), "\n"),
		}
	}

	// A third of one cold Q21: its first runs time out, reuse hits and
	// short queues do not.
	p, err := newTestCache(1, nil).Get(queries.Q21)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	runPlan(t, p)
	timeout := time.Since(start) / 3

	srv, addr := startTestServer(t, func(c *Config) {
		c.Reuse = true
		c.ReuseCapBytes = capBytes
		c.MaxInflight = 2
		c.MaxQueued = 2
		c.QueryTimeout = timeout
	})

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for v := 1; ; v++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				srv.RegisterDataset("clicks", versions[v%2])
			}
		}
	}()

	var mu sync.Mutex
	seen := map[string]int{} // SQLSTATE (or "ok") -> replies
	count := func(code string) {
		mu.Lock()
		seen[code]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for conn := 0; conn < reconnects; conn++ {
				cli, err := Dial(addr, "chaos", "ysmart", 10*time.Second)
				if err != nil {
					t.Errorf("client %d dial %d: %v", c, conn, err)
					return
				}
				// A session takes its tables at connect, so every clicks
				// reply on one connection is over the same version.
				version := -1
				for op := 0; op < opsPerConn; op++ {
					sql := sqls[rng.Intn(len(sqls))]
					switch rng.Intn(8) {
					case 0:
						sql = badSQL
					case 1:
						sql = "SET client_min_messages = warning"
					}
					res, err := cli.Query(sql)
					var srvErr *ServerError
					switch {
					case errors.As(err, &srvErr):
						count(srvErr.Code)
						allowed := srvErr.Code == sqlstateQueryCanceled || srvErr.Code == sqlstateTooManyConns || srvErr.Code == sqlstateShutdown
						if sql == badSQL {
							allowed = srvErr.Code == sqlstateSyntaxError
						}
						if !allowed {
							t.Errorf("client %d: %q answered %v", c, sql, srvErr)
						}
					case err != nil:
						t.Errorf("client %d: %q: %v", c, sql, err)
						cli.Close()
						return
					case sql == badSQL:
						t.Errorf("client %d: bad SQL succeeded", c)
					case res.Tag == "SET":
						count("ok")
					default:
						count("ok")
						got := strings.Join(wireLines(res), "\n")
						is := [2]bool{got == want[sql][0], got == want[sql][1]}
						v := 0
						if is[1] {
							v = 1
						}
						switch {
						case !is[0] && !is[1]:
							t.Errorf("client %d: %q matches the oracle over neither clicks version", c, sql)
						case is[0] && is[1]:
							// a TPC-H query: says nothing about the version
						case version < 0:
							version = v
						case version != v:
							t.Errorf("client %d: one session answered over clicks versions %d and %d", c, version, v)
						}
					}
				}
				if (c+conn)%3 != 0 {
					cli.Close()
					continue
				}
				// Hang up mid-query: send the statement, never read.
				cli.writer.begin()
				cli.writer.cstr(sqls[rng.Intn(len(sqls))])
				_ = cli.writer.end(msgQuery)
				_ = cli.writer.flush()
				cli.conn.Close()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	t.Logf("query timeout %s; replies by SQLSTATE %v", timeout, seen)
	if seen["ok"] == 0 || seen[sqlstateQueryCanceled] == 0 {
		t.Errorf("want successful replies and 57014 replies in the mix, got %d and %d", seen["ok"], seen[sqlstateQueryCanceled])
	}

	if !srv.Shutdown(10 * time.Second) {
		t.Error("Shutdown did not drain: an admission slot was never released")
	}
	var problems []string
	if n := srv.Admission().Inflight(); n != 0 {
		problems = append(problems, fmt.Sprintf("%d admission slots held", n))
	}
	if n := srv.Admission().QueueDepth(); n != 0 {
		problems = append(problems, fmt.Sprintf("%d queries queued", n))
	}
	if n := len(srv.Sessions()); n != 0 {
		problems = append(problems, fmt.Sprintf("%d sessions live", n))
	}
	// Leaks are told by stack content, not by a goroutine count other tests
	// may have disturbed: once Shutdown has returned only this test's own
	// goroutine may be executing module code. A goroutine that was joined is
	// allowed to be still on its way out — inside its final deferred
	// WaitGroup.Done (every goroutine the module starts ends in one, and Done
	// never blocks) or in runtime.goexit, where only its "created by" line
	// still names the module.
	stacks := make([]byte, 1<<20)
	for _, g := range strings.Split(string(stacks[:runtime.Stack(stacks, true)]), "\n\n") {
		frames, _, _ := strings.Cut(g, "\ncreated by ")
		if strings.Contains(frames, "ysmart/internal/") && !strings.Contains(frames, "TestServerChaosQuiesce") &&
			!strings.Contains(frames, "sync.(*WaitGroup).Done(") {
			problems = append(problems, "leaked goroutine:\n"+g)
		}
	}
	if len(problems) > 0 {
		t.Fatalf("server did not quiesce:\n%s", strings.Join(problems, "\n"))
	}

	// Lookup drops a stale entry together with its bytes, so after the
	// walk the store holds exactly the entries that answered.
	store := srv.ReuseStore()
	if got := store.BytesStored(); got > capBytes {
		t.Errorf("reuse store holds %d bytes, cap %d", got, capBytes)
	}
	var sum int64
	live := 0
	for _, key := range store.Keys() {
		if e, ok := store.Lookup(key); ok {
			sum += e.Bytes
			live++
		}
	}
	if store.BytesStored() != sum || store.Len() != live {
		t.Errorf("reuse store accounts %d bytes in %d entries, its entries hold %d in %d",
			store.BytesStored(), store.Len(), sum, live)
	}
}

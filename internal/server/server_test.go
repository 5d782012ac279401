package server

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/queries"
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

// TestServerQueryTimeout forces every query past its deadline and checks the
// client receives SQLSTATE 57014 while the session stays orderly.
func TestServerQueryTimeout(t *testing.T) {
	srv, addr := startTestServer(t, func(cfg *Config) { cfg.QueryTimeout = time.Nanosecond })
	cli := dialTest(t, addr)

	for i := 0; i < 2; i++ { // the second query exercises the abandoned-run wait
		_, err := cli.Query(queries.QAGG)
		var srvErr *ServerError
		if !errors.As(err, &srvErr) || srvErr.Code != sqlstateQueryCanceled {
			t.Fatalf("query %d: err = %v, want SQLSTATE %s", i, err, sqlstateQueryCanceled)
		}
	}
	if got := srv.Registry().Value("ysmart_server_query_timeouts_total"); got != 2 {
		t.Fatalf("query_timeouts_total = %v, want 2", got)
	}
	// Graceful drain waits for the abandoned runs to finish.
	if !srv.Shutdown(10 * time.Second) {
		t.Fatal("shutdown did not drain after abandoned runs")
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

package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ysmart/internal/server"
)

// TestServerMainEndToEnd boots the full command on free ports, runs queries
// over the wire, scrapes the admin plane, and shuts down via the test hook.
func TestServerMainEndToEnd(t *testing.T) {
	var out strings.Builder
	type addrs struct{ sql, admin string }
	up := make(chan addrs, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-listen", "127.0.0.1:0",
			"-max-inflight", "2",
			"-cache-size", "8",
		}, &out, func(sqlAddr, adminAddr string) <-chan struct{} {
			up <- addrs{sqlAddr, adminAddr}
			return stop
		})
	}()

	var a addrs
	select {
	case a = <-up:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\noutput:\n%s", err, out.String())
	case <-time.After(60 * time.Second):
		t.Fatal("server did not come up")
	}

	cli, err := server.Dial(a.sql, "maintest", "ysmart", 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", a.sql, err)
	}
	defer cli.Close()

	const sql = "SELECT cid, count(*) AS n FROM clicks GROUP BY cid"
	res1, err := cli.Query(sql)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	if len(res1.Rows) == 0 {
		t.Fatal("first query returned no rows")
	}
	if want := fmt.Sprintf("SELECT %d", len(res1.Rows)); res1.Tag != want {
		t.Fatalf("tag = %q, want %q", res1.Tag, want)
	}
	res2, err := cli.Query(sql) // identical query: must hit the plan cache
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if len(res2.Rows) != len(res1.Rows) {
		t.Fatalf("repeat query returned %d rows, first returned %d", len(res2.Rows), len(res1.Rows))
	}

	metrics := httpGet(t, "http://"+a.admin+"/metrics")
	for _, family := range []string{
		"ysmart_server_plancache_hits_total 1",
		"ysmart_server_plancache_misses_total 1",
		"ysmart_server_queries_total 2",
		"ysmart_server_connections_total 1",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	sessions := httpGet(t, "http://"+a.admin+"/sessions")
	if !strings.Contains(sessions, `"user": "maintest"`) {
		t.Errorf("/sessions does not list the live session: %s", sessions)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "serving the PostgreSQL wire protocol on") {
		t.Errorf("startup banner missing:\n%s", out.String())
	}
}

func TestServerMainFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nope"},
		{"-cluster", "nope"},
		{"-faults", "bogus=spec"},
		{"-log", "-", "-log-level", "nope"},
	} {
		if err := run(args, io.Discard, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestServerMainReuse: a -reuse server materializes job outputs across
// sessions — a second connection running the same query gets warm
// artifact hits recorded by the first — with identical rows over the wire
// and the ysmart_reuse_* families on the admin plane.
func TestServerMainReuse(t *testing.T) {
	var out strings.Builder
	type addrs struct{ sql, admin string }
	up := make(chan addrs, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-listen", "127.0.0.1:0",
			"-reuse",
			"-cache-size", "8",
		}, &out, func(sqlAddr, adminAddr string) <-chan struct{} {
			up <- addrs{sqlAddr, adminAddr}
			return stop
		})
	}()

	var a addrs
	select {
	case a = <-up:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\noutput:\n%s", err, out.String())
	case <-time.After(60 * time.Second):
		t.Fatal("server did not come up")
	}

	const sql = "SELECT cid, count(*) AS n FROM clicks GROUP BY cid"
	query := func(user string) []string {
		cli, err := server.Dial(a.sql, user, "ysmart", 5*time.Second)
		if err != nil {
			t.Fatalf("dial %s: %v", a.sql, err)
		}
		defer cli.Close()
		res, err := cli.Query(sql)
		if err != nil {
			t.Fatalf("%s query: %v", user, err)
		}
		var lines []string
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				if c != nil {
					cells[i] = *c
				}
			}
			lines = append(lines, strings.Join(cells, "\t"))
		}
		return lines
	}
	cold := query("cold-session")
	warm := query("warm-session") // fresh connection: hits must cross sessions
	if len(cold) == 0 {
		t.Fatal("cold session returned no rows")
	}
	if strings.Join(warm, "\n") != strings.Join(cold, "\n") {
		t.Fatalf("warm session rows differ from cold session:\n got  %v\n want %v", warm, cold)
	}

	metrics := httpGet(t, "http://"+a.admin+"/metrics")
	for _, family := range []string{
		"ysmart_reuse_records_total",
		"ysmart_reuse_hits_total 1",
		"ysmart_reuse_entries 1",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// TestServerMainManimal: a -manimal server serves a filtered query
// through the full wire path with the scan prefilters installed, and
// repeat queries hit the (optimizer-keyed) plan cache.
func TestServerMainManimal(t *testing.T) {
	var out strings.Builder
	up := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-manimal",
			"-cache-size", "8",
		}, &out, func(sqlAddr, adminAddr string) <-chan struct{} {
			up <- sqlAddr
			return stop
		})
	}()

	var sqlAddr string
	select {
	case sqlAddr = <-up:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\noutput:\n%s", err, out.String())
	case <-time.After(60 * time.Second):
		t.Fatal("server did not come up")
	}

	cli, err := server.Dial(sqlAddr, "manimaltest", "ysmart", 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", sqlAddr, err)
	}
	defer cli.Close()

	const sql = "SELECT l_shipmode, count(*) AS ship_count FROM lineitem WHERE l_shipdate >= 9300 GROUP BY l_shipmode"
	res1, err := cli.Query(sql)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	if len(res1.Rows) == 0 {
		t.Fatal("optimized query returned no rows")
	}
	res2, err := cli.Query(sql) // must hit the optimizer-keyed cache entry
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if len(res2.Rows) != len(res1.Rows) {
		t.Fatalf("repeat query returned %d rows, first returned %d", len(res2.Rows), len(res1.Rows))
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestPsqlHintSplitsHostAndPort(t *testing.T) {
	for _, tc := range []struct{ addr, host, port string }{
		{"127.0.0.1:5433", "127.0.0.1", "5433"},
		{"[::1]:5433", "::1", "5433"},
	} {
		want := fmt.Sprintf("try: psql -h %s -p %s -c ", tc.host, tc.port)
		if got := psqlHint(tc.addr); !strings.HasPrefix(got, want) {
			t.Errorf("psqlHint(%q) = %q, want prefix %q", tc.addr, got, want)
		}
	}
}

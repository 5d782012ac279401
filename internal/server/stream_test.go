package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
)

// resultOver is a translator.Result over arbitrary result-file lines: a plan
// with no jobs whose output is a file the test wrote.
func resultOver(t testing.TB, lines []string, tag string, schema *exec.Schema) *translator.Result {
	t.Helper()
	dfs := mapreduce.NewDFS()
	dfs.WriteShared("out", lines)
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := translator.Run(context.Background(), &translator.Translation{Output: "out", OutputTag: tag, OutputSchema: schema}, eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// referenceDataRow is the wire rendering the streaming writer replaced, kept
// as the reference: decode the line into a Row, render every cell through
// TextValue, frame the DataRow.
func referenceDataRow(payload string, schema *exec.Schema) ([]byte, error) {
	row, err := exec.DecodeRow(payload, schema)
	if err != nil {
		return nil, err
	}
	body := binary.BigEndian.AppendUint16(nil, uint16(len(row)))
	for _, v := range row {
		if v.IsNull() {
			body = binary.BigEndian.AppendUint32(body, 0xffffffff)
			continue
		}
		s := TextValue(v)
		body = binary.BigEndian.AppendUint32(body, uint32(len(s)))
		body = append(body, s...)
	}
	msg := binary.BigEndian.AppendUint32([]byte{msgDataRow}, uint32(len(body)+4))
	return append(msg, body...), nil
}

// checkDataRowLine holds the writer to the reference on one line: the same
// bytes when the reference accepts it, the same error text and no bytes at
// all when it does not.
func checkDataRowLine(t testing.TB, payload string, schema *exec.Schema) {
	t.Helper()
	var buf bytes.Buffer
	w := newWireWriter(&buf)
	gotErr := w.dataRow(payload, schema)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	want, wantErr := referenceDataRow(payload, schema)
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("line %q schema %s: error %v, reference error %v", payload, schema, gotErr, wantErr)
		}
		if buf.Len() != 0 {
			t.Fatalf("line %q schema %s: a refused line left %d bytes on the wire", payload, schema, buf.Len())
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("line %q schema %s: error %v, reference accepts", payload, schema, gotErr)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("line %q schema %s:\n got %q\nwant %q", payload, schema, buf.Bytes(), want)
	}
}

func oneCol(t exec.Type) *exec.Schema {
	return &exec.Schema{Cols: []exec.Column{{Table: "r", Name: "c", Type: t}}}
}

// TestDataRowGolden walks every column type × edge value through the four
// places the file codec and the wire text format differ (a float's ".0"
// marker, true/false vs t/f, the \N field vs length -1, string escapes):
// the cell the client reads is spelled out here, and the DataRow bytes must
// equal the reference's. "NULL" stands for the nil cell, "error" for a line
// both sides must refuse with one text.
func TestDataRowGolden(t *testing.T) {
	cases := []struct {
		typ   exec.Type
		field string
		cell  string
	}{
		{exec.TypeInt, "0", "0"},
		{exec.TypeInt, "-9223372036854775808", "-9223372036854775808"},
		{exec.TypeInt, "9223372036854775807", "9223372036854775807"},
		{exec.TypeInt, "+5", "5"},
		{exec.TypeInt, "007", "7"},
		{exec.TypeInt, "-0", "0"},
		{exec.TypeInt, `\N`, "NULL"},
		{exec.TypeInt, "9223372036854775808", "error"},
		{exec.TypeInt, "1.0", "error"},
		{exec.TypeInt, "", "error"},
		{exec.TypeInt, "true", "error"},

		{exec.TypeFloat, "1.0", "1"},
		{exec.TypeFloat, "-0.0", "-0"},
		{exec.TypeFloat, "0.1", "0.1"},
		{exec.TypeFloat, "1e+21", "1e+21"},
		{exec.TypeFloat, "1e3", "1000"},
		{exec.TypeFloat, "123456789.0", "1.23456789e+08"},
		{exec.TypeFloat, "24710.35", "24710.35"},
		{exec.TypeFloat, "5", "5"},
		{exec.TypeFloat, "NaN", "NaN"},
		{exec.TypeFloat, "+Inf", "+Inf"},
		{exec.TypeFloat, "-Inf", "-Inf"},
		{exec.TypeFloat, "Inf", "+Inf"},
		{exec.TypeFloat, "infinity", "+Inf"},
		{exec.TypeFloat, "0x1p-2", "0.25"},
		{exec.TypeFloat, `\N`, "NULL"},
		{exec.TypeFloat, "1e400", "error"},
		{exec.TypeFloat, "1.0.0", "error"},
		{exec.TypeFloat, "", "error"},

		{exec.TypeBool, "true", "t"},
		{exec.TypeBool, "false", "f"},
		{exec.TypeBool, `\N`, "NULL"},
		{exec.TypeBool, "t", "error"},
		{exec.TypeBool, "TRUE", "error"},
		{exec.TypeBool, "", "error"},

		{exec.TypeString, "", ""},
		{exec.TypeString, "DELIVER IN PERSON", "DELIVER IN PERSON"},
		{exec.TypeString, "NULL", "NULL"}, // the four letters, not the nil cell (told apart below)
		{exec.TypeString, `a\tb`, "a\tb"},
		{exec.TypeString, `a\nb\rc`, "a\nb\rc"},
		{exec.TypeString, `back\\slash`, `back\slash`},
		{exec.TypeString, `x\Ny`, "xNy"},
		{exec.TypeString, "h\xc3\xa9llo \xff", "h\xc3\xa9llo \xff"},
		{exec.TypeString, `\N`, "NULL"},
		{exec.TypeString, `dangling\`, "error"},
		{exec.TypeString, `\q`, "error"},

		// An untyped column: the field's own syntax decides.
		{exec.TypeNull, `\N`, "NULL"},
		{exec.TypeNull, "5", "5"},
		{exec.TypeNull, "+5", "5"},
		{exec.TypeNull, "5.0", "5"},
		{exec.TypeNull, "1e3", "1000"},
		{exec.TypeNull, "true", "t"},
		{exec.TypeNull, "false", "f"},
		{exec.TypeNull, "NaN", "NaN"},
		{exec.TypeNull, "1996-03-13", "1996-03-13"},
		{exec.TypeNull, `a\tb`, "a\tb"},
		{exec.TypeNull, "", ""},
		{exec.TypeNull, `\q`, "error"},

		{exec.Type(0), "x", "error"},
	}
	var wide exec.Schema
	var fields []string
	for i, c := range cases {
		schema := oneCol(c.typ)
		checkDataRowLine(t, c.field, schema)

		// The literal expectation, read back the way a client reads it.
		var buf bytes.Buffer
		w := newWireWriter(&buf)
		err := w.dataRow(c.field, schema)
		if (c.cell == "error") != (err != nil) {
			t.Errorf("%v field %q: error %v, want cell %q", c.typ, c.field, err, c.cell)
			continue
		}
		if err != nil {
			continue
		}
		_ = w.flush()
		_, body, err := newWireReader(&buf, serverReadBufSize).next()
		if err != nil {
			t.Fatal(err)
		}
		row, err := decodeDataRow(body)
		if err != nil || len(row) != 1 {
			t.Fatalf("%v field %q: decoded %v, %v", c.typ, c.field, row, err)
		}
		isNull := c.cell == "NULL" && c.field == `\N`
		switch {
		case isNull && row[0] != nil:
			t.Errorf("%v field %q: cell %q, want NULL", c.typ, c.field, *row[0])
		case !isNull && (row[0] == nil || *row[0] != c.cell):
			t.Errorf("%v field %q: cell %v, want %q", c.typ, c.field, row[0], c.cell)
		}
		wide.Cols = append(wide.Cols, exec.Column{Table: "r", Name: fmt.Sprintf("c%d", i), Type: c.typ})
		fields = append(fields, c.field)
	}

	// Every accepted field side by side in one row, then the same row with a
	// field too few, a field too many, and one bad field in the middle — the
	// field-count error outranks the bad field, as in DecodeRow.
	line := strings.Join(fields, "\t")
	checkDataRowLine(t, line, &wide)
	checkDataRowLine(t, strings.Join(fields[1:], "\t"), &wide)
	checkDataRowLine(t, line+"\textra", &wide)
	bad := append([]string(nil), fields...)
	bad[0] = "oops"
	checkDataRowLine(t, strings.Join(bad, "\t"), &wide)
	checkDataRowLine(t, strings.Join(bad[:len(bad)-1], "\t"), &wide)
	checkDataRowLine(t, "", &wide)
	checkDataRowLine(t, "", &exec.Schema{})
	checkDataRowLine(t, "x", &exec.Schema{})
}

// fuzzSchema maps arbitrary bytes to a schema: every column type, the
// untyped one and one the codec does not know.
func fuzzSchema(types []byte) *exec.Schema {
	s := &exec.Schema{}
	for i, b := range types {
		s.Cols = append(s.Cols, exec.Column{Table: "r", Name: fmt.Sprintf("c%d", i), Type: exec.Type(b % 7)})
	}
	return s
}

// FuzzDataRowLine: for any (line, schema) DecodeRow accepts, the streamed
// DataRow is byte-identical to decode-then-TextValue; for any it rejects,
// the writer errors with the same text and writes nothing.
func FuzzDataRowLine(f *testing.F) {
	f.Add("42\t1.0\thello\ttrue\t\\N", []byte{2, 3, 4, 5, 1})
	f.Add("+5\t-0.0\ta\\tb\tfalse", []byte{2, 3, 4, 5})
	f.Add("1e+21\tNaN\t+Inf\t1e3", []byte{3, 3, 3, 1})
	f.Add("x\\Ny\t\\N\t\\\\", []byte{4, 4, 1})
	f.Add("007", []byte{2, 2})
	f.Add("", []byte{})
	f.Add("a\tb", []byte{0, 6})
	f.Fuzz(func(t *testing.T, line string, types []byte) {
		if len(types) > 64 {
			types = types[:64]
		}
		checkDataRowLine(t, line, fuzzSchema(types))
	})
}

// streamBytes renders a result the way a session does, into memory.
func streamBytes(schema *exec.Schema, res *translator.Result) ([]byte, error) {
	var buf bytes.Buffer
	s := &session{writer: newWireWriter(&buf)}
	err := s.streamResult(schema, res)
	_ = s.writer.flush()
	return buf.Bytes(), err
}

// TestStreamResultMultiTagFile: a shared job's output file carries other
// queries' lines beside this result's; the stream is the reference rendering
// of exactly the lines with the result's tag, in file order, and the command
// tag counts them.
func TestStreamResultMultiTagFile(t *testing.T) {
	schema := &exec.Schema{Cols: []exec.Column{
		{Table: "r", Name: "k", Type: exec.TypeInt},
		{Table: "r", Name: "v", Type: exec.TypeFloat},
		{Table: "r", Name: "s", Type: exec.TypeString},
	}}
	lines := []string{
		"other\x01not\tthis\tshape\tat\tall",
		"mine\x011\t1.0\ta\\tb",
		"mine\x012\t\\N\t\\N",
		"\x01untagged",
		"other\x01x",
		"mine\x01+3\t1e3\t",
	}
	var w wireWriter
	_ = w.rowDescription(schema)
	want := append([]byte(nil), w.buf...)
	for _, payload := range []string{"1\t1.0\ta\\tb", "2\t\\N\t\\N", "+3\t1e3\t"} {
		row, err := referenceDataRow(payload, schema)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, row...)
	}
	w = wireWriter{}
	_ = w.commandComplete("SELECT 3")
	want = append(want, w.buf...)

	got, err := streamBytes(schema, resultOver(t, lines, "mine", schema))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream differs from the reference:\n got %q\nwant %q", got, want)
	}
}

// TestAllocBudgetServing pins the serving path's allocation counts (no race
// detector: it changes them). Streaming a result costs nothing per row — the
// total is the same for 100 rows and 10 000 — the client decodes a DataRow in
// three allocations whatever its width, and opening a session costs the same
// for 10-line tables as for 100 000-line ones.
func TestAllocBudgetServing(t *testing.T) {
	schema := &exec.Schema{Cols: []exec.Column{
		{Table: "l", Name: "l_orderkey", Type: exec.TypeInt},
		{Table: "l", Name: "l_extendedprice", Type: exec.TypeFloat},
		{Table: "l", Name: "l_shipmode", Type: exec.TypeString},
		{Table: "l", Name: "l_flag", Type: exec.TypeBool},
		{Table: "l", Name: "l_untyped", Type: exec.TypeNull},
	}}
	const line = "1552\t24710.35\tDELIVER IN PERSON\ttrue\t\\N"
	stream := func(n int) float64 {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = line
		}
		res := resultOver(t, lines, "", schema)
		s := &session{writer: newWireWriter(io.Discard)}
		return testing.AllocsPerRun(5, func() {
			if err := s.streamResult(schema, res); err != nil {
				t.Fatal(err)
			}
			_ = s.writer.flush()
		})
	}
	small, large := stream(100), stream(10000)
	if small != large || small > 4 {
		t.Errorf("streaming 100 rows costs %v allocations, 10 000 rows %v: want equal and at most 4", small, large)
	}

	var buf bytes.Buffer
	w := newWireWriter(&buf)
	_ = w.dataRow(line, schema)
	_ = w.flush()
	_, body, err := newWireReader(&buf, serverReadBufSize).next()
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := decodeDataRow(body); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("decodeDataRow costs %v allocations for a %d-cell row, budget 3", got, schema.Len())
	}

	connect := func(linesPerTable int) float64 {
		tables := map[string][]string{}
		for _, name := range []string{"lineitem", "orders", "clicks"} {
			tables[name] = make([]string, linesPerTable)
		}
		srv, err := New(Config{
			Catalog: queries.Catalog(),
			Cluster: func() *mapreduce.Cluster { return mapreduce.SmallCluster() },
			Reuse:   true,
		}, tables)
		if err != nil {
			t.Fatal(err)
		}
		conn, peer := net.Pipe()
		defer conn.Close()
		defer peer.Close()
		return testing.AllocsPerRun(5, func() {
			if _, err := newSession(srv, 1, conn); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := connect(10), connect(100000); few != many {
		t.Errorf("opening a session costs %v allocations over 10-line tables, %v over 100 000-line ones: want equal", few, many)
	}

	// A query's fixed cost: a warmed statement answered as a full-chain reuse
	// hit — plan-cache hit, admission, the run, the stream — into io.Discard.
	// The run is a call on the session's goroutine, so a goroutine, channel
	// or timer per query would show here. The plan-cache hit lexes into one
	// token slice and renders the key in one string.
	_, lines := fixture(t)
	srv, err := New(Config{
		Catalog:  queries.Catalog(),
		Cluster:  func() *mapreduce.Cluster { return mapreduce.SmallCluster() },
		Reuse:    true,
		Registry: obs.NewRegistry(),
	}, lines)
	if err != nil {
		t.Fatal(err)
	}
	conn, peer := net.Pipe()
	defer conn.Close()
	defer peer.Close()
	s, err := newSession(srv, 1, conn)
	if err != nil {
		t.Fatal(err)
	}
	s.writer = newWireWriter(io.Discard)
	query := func() {
		if err := s.handleQuery(queries.QAGG); err != nil {
			t.Fatal(err)
		}
	}
	query() // cold: translates, runs, records
	records := srv.Registry().Value("ysmart_reuse_records_total")
	const queryBudget = 23
	if got := testing.AllocsPerRun(50, query); got > queryBudget {
		t.Errorf("a warmed full-chain reuse hit costs %v allocations, budget %d", got, queryBudget)
	}
	if srv.Registry().Value("ysmart_reuse_records_total") != records || srv.Registry().Value("ysmart_server_query_errors_total") != 0 {
		t.Error("the measured queries were not all clean full-chain hits")
	}
}

// TestResultStreams: a result many times the write buffer reaches the client
// while the server is still producing it, and the server's heap does not
// follow the result — what it allocates while streaming is bounded by its
// buffer, not by the row count. net.Pipe has no buffer of its own, so the
// writer cannot run ahead of the reader.
func TestResultStreams(t *testing.T) {
	schema := &exec.Schema{Cols: []exec.Column{
		{Table: "r", Name: "k", Type: exec.TypeInt},
		{Table: "r", Name: "s", Type: exec.TypeString},
	}}
	const rows = 200000
	lines := make([]string, rows)
	for i := range lines {
		lines[i] = "1234567\tsixteen byte str"
	}
	res := resultOver(t, lines, "", schema)
	srvConn, cliConn := net.Pipe()
	defer cliConn.Close()
	s := &session{writer: newWireWriter(srvConn)}

	chunk := make([]byte, 256<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var returned atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := s.streamResult(schema, res)
		returned.Store(true)
		if err == nil {
			err = s.writer.flush()
		}
		srvConn.Close()
		done <- err
	}()

	// The first read is the first buffer-full: RowDescription and the first
	// DataRows, with the rest of the result still unparsed.
	n, err := cliConn.Read(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if returned.Load() {
		t.Fatal("the whole result was produced before its first byte was read")
	}
	if first := bytes.IndexByte(chunk[:n], msgDataRow); first < 0 {
		t.Fatalf("first %d bytes carry no DataRow", n)
	}
	total := int64(n)
	for {
		n, err := cliConn.Read(chunk)
		total += int64(n)
		if err != nil {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if total < 20*writeBufSize {
		t.Fatalf("result is %d bytes on the wire: too small to show streaming past a %d-byte buffer", total, writeBufSize)
	}
	// Everything allocated while streaming — an upper bound on HeapAlloc's
	// growth — is the write buffer growing to its size, once.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*writeBufSize {
		t.Errorf("streaming %d wire bytes allocated %d bytes, want under %d", total, grew, 8*writeBufSize)
	}
}

// pipeClient opens a session on srv over an in-memory pipe and returns a
// handshaken client for it and a channel closed when the session ended.
func pipeClient(t *testing.T, srv *Server, id int64) (*Client, <-chan struct{}) {
	t.Helper()
	srvConn, cliConn := net.Pipe()
	srv.mu.Lock()
	sess, err := newSession(srv, id, srvConn)
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ended := make(chan struct{})
	go func() {
		sess.serve()
		close(ended)
	}()
	cli := &Client{
		conn:   cliConn,
		reader: newWireReader(cliConn, clientReadBufSize),
		writer: newWireWriter(cliConn),
		params: map[string]string{},
	}
	if err := cli.startup("test", "ysmart"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cliConn.Close(); <-ended })
	return cli, ended
}

const bigResultSQL = `SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipmode, l_comment FROM lineitem WHERE l_quantity > 0`

// TestConnectionWriteFailureEndsSession: when the client is gone the send
// path has nobody to tell. A write error in the middle of a result ends the
// session at once — it is not classified as a query error and answered with
// another write — and the server goes on serving.
func TestConnectionWriteFailureEndsSession(t *testing.T) {
	var logged bytes.Buffer
	_, lines := fixture(t)
	srv, err := New(Config{
		Catalog:   queries.Catalog(),
		Cluster:   func() *mapreduce.Cluster { return mapreduce.SmallCluster() },
		MaxQueued: 1, // a run hands over its outcome a moment before its slot
		Registry:  obs.NewRegistry(),
		Logger:    obs.NewLogger(&logged, obs.LevelInfo),
	}, lines)
	if err != nil {
		t.Fatal(err)
	}
	cli, ended := pipeClient(t, srv, 1)
	cli.writer.begin()
	cli.writer.cstr(bigResultSQL)
	_ = cli.writer.end(msgQuery)
	if err := cli.writer.flush(); err != nil {
		t.Fatal(err)
	}
	// Take the first buffer-full of the result, then hang up: the next write
	// of the same result fails.
	if _, _, err := cli.reader.next(); err != nil {
		t.Fatal(err)
	}
	cli.conn.Close()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("session still alive after its connection failed mid-result")
	}
	if got := srv.Registry().Value("ysmart_server_query_errors_total"); got != 0 {
		t.Errorf("a dead connection was counted as %v query error(s)", got)
	}
	if !strings.Contains(logged.String(), "session.write_failed") {
		t.Errorf("no session.write_failed event in the log:\n%s", logged.String())
	}

	// The server is unharmed: a new session answers the same statement.
	cli2, _ := pipeClient(t, srv, 2)
	res, err := cli2.Query(bigResultSQL)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, "query after a failed connection", wireLines(res), oracleWireLines(t, bigResultSQL))
}

// TestMalformedResultLineMidStream: a result line the schema cannot parse is
// the server's fault, found only once rows are already on the wire. The
// client gets those rows' worth of DataRows, then an XX000 ErrorResponse and
// ReadyForQuery, and the session stays usable.
func TestMalformedResultLineMidStream(t *testing.T) {
	srv, addr := startTestServer(t, func(c *Config) { c.Reuse = true })
	cli := dialTest(t, addr)
	good, err := cli.Query(bigResultSQL)
	if err != nil {
		t.Fatal(err)
	}

	// Poison the recorded root artifact: same key, one line in the middle
	// with a field too many.
	p, err := srv.Cache().Get(bigResultSQL)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := translator.RootArtifactKey(p.Translation)
	if !ok {
		t.Fatal("plan carries no artifacts")
	}
	store := srv.ReuseStore()
	e, ok := store.Lookup(key)
	if !ok {
		t.Fatal("root artifact was not recorded")
	}
	poisoned := append([]string(nil), e.Lines...)
	at := len(poisoned) / 2
	poisoned[at] += "\toops"
	store.Record(key, e.Fingerprint, e.Tables, e.Epochs, poisoned, e.PredictedSeconds)

	// Read the reply message by message: the rows before the bad line, then
	// the error, then ReadyForQuery — nothing after the error but that.
	cli.writer.begin()
	cli.writer.cstr(bigResultSQL)
	_ = cli.writer.end(msgQuery)
	if err := cli.writer.flush(); err != nil {
		t.Fatal(err)
	}
	var order []byte
	var srvErr *ServerError
	for len(order) == 0 || order[len(order)-1] != msgReadyForQuery {
		typ, body, err := cli.reader.next()
		if err != nil {
			t.Fatal(err)
		}
		if typ == msgErrorResponse {
			srvErr = decodeError(body)
		}
		if n := len(order); n == 0 || order[n-1] != typ {
			order = append(order, typ)
		}
	}
	if string(order) != "TDEZ" {
		t.Fatalf("reply message types (runs collapsed) = %q, want RowDescription, DataRows, ErrorResponse, ReadyForQuery", order)
	}
	if srvErr.Code != sqlstateInternalError {
		t.Fatalf("poisoned artifact answered %v, want SQLSTATE %s", srvErr, sqlstateInternalError)
	}
	if !strings.Contains(srvErr.Message, "result row") || !strings.Contains(srvErr.Message, "fields, schema") {
		t.Errorf("error message %q does not name the line and what is wrong with it", srvErr.Message)
	}

	// Same session, next statement: served, correct.
	res, err := cli.Query(queries.QAGG)
	if err != nil {
		t.Fatalf("query after a mid-stream failure: %v", err)
	}
	diffLines(t, "query after a mid-stream failure", wireLines(res), oracleWireLines(t, queries.QAGG))

	// And the statement itself is fine once the artifact is: same rows as
	// before the poisoning.
	store.Record(key, e.Fingerprint, e.Tables, e.Epochs, e.Lines, e.PredictedSeconds)
	again, err := cli.Query(bigResultSQL)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, "restored artifact", wireLines(again), wireLines(good))
}

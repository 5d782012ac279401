package server

import (
	"bytes"
	"testing"

	"ysmart/internal/exec"
)

func TestWireMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := newWireWriter(&buf)
	schema := &exec.Schema{Cols: []exec.Column{
		{Name: "cid", Type: exec.TypeInt},
		{Name: "rate", Type: exec.TypeFloat},
		{Name: "name", Type: exec.TypeString},
		{Name: "ok", Type: exec.TypeBool},
	}}
	if err := w.rowDescription(schema); err != nil {
		t.Fatalf("rowDescription: %v", err)
	}
	row := exec.Row{exec.Int(42), exec.Float(1.5), exec.Null(), exec.Bool(true)}
	if err := w.dataRow(exec.EncodeRow(row), schema); err != nil {
		t.Fatalf("dataRow: %v", err)
	}
	if err := w.commandComplete("SELECT 1"); err != nil {
		t.Fatalf("commandComplete: %v", err)
	}
	if err := w.readyForQuery(); err != nil {
		t.Fatalf("readyForQuery: %v", err)
	}

	r := newWireReader(&buf, serverReadBufSize)
	typ, body, err := r.next()
	if err != nil || typ != msgRowDescription {
		t.Fatalf("first message: type %q err %v, want RowDescription", typ, err)
	}
	if n := int(body[0])<<8 | int(body[1]); n != 4 {
		t.Fatalf("RowDescription field count = %d, want 4", n)
	}
	typ, body, err = r.next()
	if err != nil || typ != msgDataRow {
		t.Fatalf("second message: type %q err %v, want DataRow", typ, err)
	}
	cells, err := decodeDataRow(body)
	if err != nil {
		t.Fatalf("decodeDataRow: %v", err)
	}
	want := []*string{strPtr("42"), strPtr("1.5"), nil, strPtr("t")}
	if len(cells) != len(want) {
		t.Fatalf("cell count = %d, want %d", len(cells), len(want))
	}
	for i := range want {
		switch {
		case want[i] == nil && cells[i] != nil:
			t.Fatalf("cell %d = %q, want NULL", i, *cells[i])
		case want[i] != nil && (cells[i] == nil || *cells[i] != *want[i]):
			t.Fatalf("cell %d = %v, want %q", i, cells[i], *want[i])
		}
	}
	typ, body, err = r.next()
	if err != nil || typ != msgCommandComplete || cString(body) != "SELECT 1" {
		t.Fatalf("third message: type %q tag %q err %v, want CommandComplete SELECT 1", typ, cString(body), err)
	}
	typ, body, err = r.next()
	if err != nil || typ != msgReadyForQuery || len(body) != 1 || body[0] != 'I' {
		t.Fatalf("fourth message: type %q body %q err %v, want ReadyForQuery idle", typ, body, err)
	}
}

func strPtr(s string) *string { return &s }

func TestErrorResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := newWireWriter(&buf)
	if err := w.errorResponse(sqlstateSyntaxError, "no such table"); err != nil {
		t.Fatalf("errorResponse: %v", err)
	}
	if err := w.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	r := newWireReader(&buf, serverReadBufSize)
	typ, body, err := r.next()
	if err != nil || typ != msgErrorResponse {
		t.Fatalf("message: type %q err %v, want ErrorResponse", typ, err)
	}
	e := decodeError(body)
	if e.Severity != "ERROR" || e.Code != sqlstateSyntaxError || e.Message != "no such table" {
		t.Fatalf("decoded error = %+v", e)
	}
}

func TestStartupParams(t *testing.T) {
	payload := []byte("user\x00alice\x00database\x00clicks\x00\x00")
	params := startupParams(payload)
	if params["user"] != "alice" || params["database"] != "clicks" {
		t.Fatalf("params = %v", params)
	}
}

func TestMessageLengthBounds(t *testing.T) {
	// A hostile length field must not allocate; both readers reject it.
	var buf bytes.Buffer
	buf.Write([]byte{0x7f, 0xff, 0xff, 0xff})
	if _, _, err := newWireReader(&buf, serverReadBufSize).startup(); err == nil {
		t.Fatal("oversized startup length accepted")
	}
	buf.Reset()
	buf.WriteByte(msgQuery)
	buf.Write([]byte{0x7f, 0xff, 0xff, 0xff})
	if _, _, err := newWireReader(&buf, serverReadBufSize).next(); err == nil {
		t.Fatal("oversized message length accepted")
	}
}

func TestTextValue(t *testing.T) {
	cases := []struct {
		v    exec.Value
		want string
	}{
		{exec.Bool(true), "t"},
		{exec.Bool(false), "f"},
		{exec.Int(-7), "-7"},
		{exec.Float(2.5), "2.5"},
		{exec.Str("x"), "x"},
		{exec.Null(), "NULL"},
	}
	for _, c := range cases {
		if got := TextValue(c.v); got != c.want {
			t.Errorf("TextValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTypeOIDs(t *testing.T) {
	cases := []struct {
		t    exec.Type
		oid  int32
		size int16
	}{
		{exec.TypeBool, oidBool, 1},
		{exec.TypeInt, oidInt8, 8},
		{exec.TypeFloat, oidFloat8, 8},
		{exec.TypeString, oidText, -1},
		{exec.TypeNull, oidText, -1},
	}
	for _, c := range cases {
		oid, size := typeOID(c.t)
		if oid != c.oid || size != c.size {
			t.Errorf("typeOID(%v) = %d/%d, want %d/%d", c.t, oid, size, c.oid, c.size)
		}
	}
}

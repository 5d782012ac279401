// Package server turns the batch translator into a long-running SQL
// service: a TCP server speaking the PostgreSQL simple query protocol
// (startup handshake, Query, RowDescription/DataRow/CommandComplete,
// ErrorResponse, Terminate), so a stock psql client can submit queries
// against the registered datasets. Each connection gets a session that
// runs queries through a shared concurrency-safe plan cache (normalized
// SQL -> parsed/planned/translated chain, internal/translator.NormalizeSQL)
// and an admission controller (bounded in-flight semaphore with a FIFO
// wait queue and per-query timeout), executing on a per-session simulated
// runtime that reuses the engine worker pool, fault plan and logger.
//
// The protocol subset is deliberately small but real: v3 startup (plus
// SSLRequest/GSSENCRequest refusal), AuthenticationOk trust auth,
// ParameterStatus, BackendKeyData, ReadyForQuery, simple Query with text
// result format, EmptyQueryResponse, ErrorResponse with SQLSTATE fields,
// and graceful Terminate. The extended (parse/bind/execute) protocol is
// not implemented; psql's default simple mode never needs it.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"ysmart/internal/exec"
)

// Protocol constants of the PostgreSQL frontend/backend protocol v3.
const (
	protocolVersion3 = 196608   // 3.0
	sslRequestCode   = 80877103 // SSLRequest magic "version"
	gssEncReqCode    = 80877104 // GSSENCRequest magic "version"
	cancelReqCode    = 80877102 // CancelRequest magic "version"
)

// Backend (server -> client) message type bytes.
const (
	msgAuthentication  = 'R'
	msgParameterStatus = 'S'
	msgBackendKeyData  = 'K'
	msgReadyForQuery   = 'Z'
	msgRowDescription  = 'T'
	msgDataRow         = 'D'
	msgCommandComplete = 'C'
	msgEmptyQuery      = 'I'
	msgErrorResponse   = 'E'
	msgNoticeResponse  = 'N'
)

// Frontend (client -> server) message type bytes.
const (
	msgQuery     = 'Q'
	msgTerminate = 'X'
)

// PostgreSQL type OIDs for the simulator's value types (text format).
const (
	oidBool   = 16
	oidInt8   = 20
	oidFloat8 = 701
	oidText   = 25
)

// maxMessageLen bounds a single frontend message; a length beyond it is
// treated as a malformed or hostile stream and the connection is dropped.
const maxMessageLen = 1 << 20

// Fixed buffer sizes (constants, not knobs), picked on the wire_results
// benchmark: 4 KiB writes cost about a tenth of the throughput, 8-16 KiB sit
// inside the run-to-run noise without ever reading best, and from 32 KiB up
// the curve is flat while every doubling adds its size to each session's
// live heap. A wireWriter hands its buffered messages to the connection once
// they pass writeBufSize, so a large result's first rows are on the socket
// long before its last line is parsed. A server session reads one short
// Query at a time and keeps bufio's default; the client reads whole results
// (16-128 KiB read alike, about 2 % above 4 KiB).
const (
	writeBufSize      = 32 << 10
	serverReadBufSize = 4 << 10
	clientReadBufSize = 64 << 10
)

// typeOID maps a simulator value type to its wire OID. Untyped (all-NULL)
// columns travel as text.
func typeOID(t exec.Type) (oid int32, size int16) {
	switch t {
	case exec.TypeBool:
		return oidBool, 1
	case exec.TypeInt:
		return oidInt8, 8
	case exec.TypeFloat:
		return oidFloat8, 8
	default:
		return oidText, -1
	}
}

// TextValue renders a value in the PostgreSQL text result format — the
// exact cell bytes a DataRow carries. Exported so wire clients (the
// benchmark's oracle check, tests) can render expected rows the way the
// server does and compare byte-for-byte. NULLs never reach this function
// on the wire (they travel as a -1 length); a null value renders as
// "NULL", the spelling clients use for the nil cell in comparisons.
func TextValue(v exec.Value) string { return textValue(v) }

// textValue renders a value in the PostgreSQL text result format. The bool
// spelling is t/f (not Go's true/false); everything else matches
// exec.Value.String.
func textValue(v exec.Value) string {
	if v.T == exec.TypeBool {
		if v.B {
			return "t"
		}
		return "f"
	}
	return v.String()
}

// appendTextValue appends textValue(v) to dst without building the string —
// the DataRow writer's form of the same rendering for the fields
// exec.CutField refuses (the wire golden and FuzzDataRowLine hold both
// renderings, and the copy of an accepted field, to the same bytes).
func appendTextValue(dst []byte, v exec.Value) []byte {
	switch v.T {
	case exec.TypeInt:
		return strconv.AppendInt(dst, v.I, 10)
	case exec.TypeFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case exec.TypeString:
		return append(dst, v.S...)
	default:
		return append(dst, textValue(v)...)
	}
}

// wireReader decodes messages from a connection.
type wireReader struct {
	r    *bufio.Reader
	hdr  [5]byte // a message's type byte + length, kept here so reading it is not a heap allocation per message
	body []byte  // next's reused message body
}

func newWireReader(r io.Reader, bufSize int) *wireReader {
	return &wireReader{r: bufio.NewReaderSize(r, bufSize)}
}

// startup reads one startup-phase packet: length + payload with no type
// byte. It returns the protocol "version" code and the remaining payload.
func (w *wireReader) startup() (code int32, payload []byte, err error) {
	lenBuf := w.hdr[:4]
	if _, err := io.ReadFull(w.r, lenBuf); err != nil {
		return 0, nil, err
	}
	n := int32(binary.BigEndian.Uint32(lenBuf))
	if n < 8 || n > maxMessageLen {
		return 0, nil, fmt.Errorf("startup packet length %d out of range", n)
	}
	body := make([]byte, n-4)
	if _, err := io.ReadFull(w.r, body); err != nil {
		return 0, nil, err
	}
	return int32(binary.BigEndian.Uint32(body[:4])), body[4:], nil
}

// next reads one regular message (type byte + length + payload). The payload
// aliases a buffer the reader reuses: it is valid until the next call, and
// every caller copies what it keeps (cString, splitCStrings, decodeDataRow).
// The buffer grows to the largest message seen, never past maxMessageLen.
func (w *wireReader) next() (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(w.r, w.hdr[:]); err != nil {
		return 0, nil, err
	}
	t := w.hdr[0]
	n := int32(binary.BigEndian.Uint32(w.hdr[1:]))
	if n < 4 || n > maxMessageLen {
		return 0, nil, fmt.Errorf("message %q length %d out of range", t, n)
	}
	if int(n-4) > cap(w.body) {
		w.body = make([]byte, n-4)
	}
	body := w.body[:n-4]
	if _, err := io.ReadFull(w.r, body); err != nil {
		return 0, nil, err
	}
	return t, body, nil
}

// startupParams parses the key/value tail of a StartupMessage.
func startupParams(payload []byte) map[string]string {
	params := map[string]string{}
	fields := splitCStrings(payload)
	for i := 0; i+1 < len(fields); i += 2 {
		params[fields[i]] = fields[i+1]
	}
	return params
}

// splitCStrings splits a NUL-delimited byte sequence, dropping the empty
// terminator field.
func splitCStrings(b []byte) []string {
	var out []string
	start := 0
	for i, c := range b {
		if c == 0 {
			if i > start {
				out = append(out, string(b[start:i]))
			} else {
				out = append(out, "")
			}
			start = i + 1
		}
	}
	if n := len(out); n > 0 && out[n-1] == "" {
		out = out[:n-1]
	}
	return out
}

// cString reads the NUL-terminated string at the front of payload (the
// Query message body).
func cString(payload []byte) string {
	for i, c := range payload {
		if c == 0 {
			return string(payload[:i])
		}
	}
	return string(payload)
}

// wireWriter encodes messages onto a connection. Messages are framed in
// place in one buffer — begin reserves the five header bytes, the append
// helpers add the payload, end fills the header in — and the buffer goes to
// the connection in a single Write when flush is called (which is what keeps
// a short query's RowDescription/DataRow/CommandComplete/ReadyForQuery train
// one segment) or as soon as it passes writeBufSize, so a long result streams:
// nothing about a result is held here beyond the rows not yet written. The
// first write error sticks in err and every later end and flush reports it;
// it is how a caller tells a dead connection from a message it could not
// build.
type wireWriter struct {
	w     io.Writer
	buf   []byte // whole framed messages not yet written, then the one being built
	start int    // offset in buf of the message being built
	err   error
}

func newWireWriter(w io.Writer) *wireWriter { return &wireWriter{w: w} }

// begin starts a message: the append helpers accumulate its payload and
// end(typ) frames it.
func (w *wireWriter) begin() {
	w.start = len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, 0)
}

func (w *wireWriter) end(typ byte) error {
	msg := w.buf[w.start:]
	msg[0] = typ
	binary.BigEndian.PutUint32(msg[1:], uint32(len(msg)-1))
	if len(w.buf) >= writeBufSize {
		return w.flush()
	}
	return w.err
}

func (w *wireWriter) flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

func (w *wireWriter) int16(v int16) { w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(v)) }
func (w *wireWriter) int32(v int32) { w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v)) }
func (w *wireWriter) cstr(s string) { w.buf = append(append(w.buf, s...), 0) }

// authenticationOk writes AuthenticationOk (trust auth: no password round
// trip).
func (w *wireWriter) authenticationOk() error {
	w.begin()
	w.int32(0)
	return w.end(msgAuthentication)
}

// parameterStatus reports one server parameter to the client.
func (w *wireWriter) parameterStatus(key, value string) error {
	w.begin()
	w.cstr(key)
	w.cstr(value)
	return w.end(msgParameterStatus)
}

// backendKeyData sends the cancellation key pair (accepted, never used:
// CancelRequest connections are simply closed).
func (w *wireWriter) backendKeyData(pid, secret int32) error {
	w.begin()
	w.int32(pid)
	w.int32(secret)
	return w.end(msgBackendKeyData)
}

// readyForQuery signals the server is idle ('I'; the protocol's 'T'/'E'
// transaction states never arise — there are no transactions).
func (w *wireWriter) readyForQuery() error {
	w.begin()
	w.buf = append(w.buf, 'I')
	if err := w.end(msgReadyForQuery); err != nil {
		return err
	}
	return w.flush()
}

// rowDescription describes the result columns of a query.
func (w *wireWriter) rowDescription(schema *exec.Schema) error {
	w.begin()
	w.int16(int16(schema.Len()))
	for _, col := range schema.Cols {
		oid, size := typeOID(col.Type)
		w.cstr(col.Name)
		w.int32(0) // table OID: not a real catalog table
		w.int16(0) // attribute number
		w.int32(oid)
		w.int16(size)
		w.int32(-1) // type modifier
		w.int16(0)  // format: text
	}
	return w.end(msgRowDescription)
}

// dataRow writes one result row in text format straight from its codec line
// (exec.EncodeRow's format), one exec.ScanRow pass. A field exec.CutField
// finds canonical — nearly every Int, Float and String field a plan writes —
// is copied: its wire spelling is a substring of it. Every other field is
// parsed by its column's type — the parse is the check, and a line
// exec.DecodeRow would refuse is refused here with the same error — and
// written into the buffer as the wire spells it. The two formats differ in
// four places: a float's ".0" marker is the file's alone, bools are
// true/false there and t/f here, NULL is the `\N` field there and length -1
// here, and strings are escaped there and raw here. An untyped (all-NULL)
// column lets the field's own syntax decide, as the codec does. A refused
// line leaves no partial message behind.
func (w *wireWriter) dataRow(payload string, schema *exec.Schema) error {
	w.begin()
	w.int16(int16(len(schema.Cols)))
	err := exec.ScanRow(payload, schema, func(col int, field, text string, canonical bool) error {
		if canonical {
			w.int32(int32(len(text)))
			w.buf = append(w.buf, text...)
			return nil
		}
		return w.parsedField(field, schema.Cols[col].Type)
	})
	if err != nil {
		w.buf = w.buf[:w.start] // drop the partial row; the finished messages before it stand
		return err
	}
	return w.end(msgDataRow)
}

// parsedField writes a field exec.CutField did not find canonical: NULL as
// length -1, an escaped string unescaped straight into the buffer, anything
// else parsed and rendered by appendTextValue.
func (w *wireWriter) parsedField(field string, typ exec.Type) error {
	if field == exec.NullField {
		w.int32(-1)
		return nil
	}
	at := len(w.buf)
	w.int32(0)
	if typ == exec.TypeString {
		var err error
		if w.buf, err = exec.AppendUnescaped(w.buf, field); err != nil {
			return err
		}
	} else {
		v, err := exec.DecodeField(field, typ)
		if err != nil {
			return err
		}
		w.buf = appendTextValue(w.buf, v)
	}
	binary.BigEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	return nil
}

// commandComplete finishes a successful command with its tag
// (e.g. "SELECT 42").
func (w *wireWriter) commandComplete(tag string) error {
	w.begin()
	w.cstr(tag)
	return w.end(msgCommandComplete)
}

// emptyQueryResponse answers an empty query string.
func (w *wireWriter) emptyQueryResponse() error {
	w.begin()
	return w.end(msgEmptyQuery)
}

// errorResponse writes an ErrorResponse with severity/SQLSTATE/message
// fields. The caller still sends ReadyForQuery afterwards; a protocol-fatal
// error closes the connection instead.
func (w *wireWriter) errorResponse(sqlstate, message string) error {
	w.begin()
	w.buf = append(w.buf, 'S')
	w.cstr("ERROR")
	w.buf = append(w.buf, 'V')
	w.cstr("ERROR")
	w.buf = append(w.buf, 'C')
	w.cstr(sqlstate)
	w.buf = append(w.buf, 'M')
	w.cstr(message)
	w.buf = append(w.buf, 0)
	return w.end(msgErrorResponse)
}

// SQLSTATE codes the server emits.
const (
	sqlstateSyntaxError       = "42601" // syntax_error: parse/plan/translate failures
	sqlstateNotSupported      = "0A000" // feature_not_supported: valid SQL refused (plan.ErrUnsupported)
	sqlstateInternalError     = "XX000" // internal_error: the compiled plan failed to execute
	sqlstateQueryCanceled     = "57014" // query_canceled: per-query timeout
	sqlstateTooManyConns      = "53300" // too_many_connections: admission queue full
	sqlstateShutdown          = "57P01" // admin_shutdown: graceful drain
	sqlstateProtocolViolation = "08P01" // protocol_violation: unsupported message
)

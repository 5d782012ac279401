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
	msgAuthentication   = 'R'
	msgParameterStatus  = 'S'
	msgBackendKeyData   = 'K'
	msgReadyForQuery    = 'Z'
	msgRowDescription   = 'T'
	msgDataRow          = 'D'
	msgCommandComplete  = 'C'
	msgEmptyQuery       = 'I'
	msgErrorResponse    = 'E'
	msgNoticeResponse   = 'N'
	msgParameterDesc    = 't'
	msgParseComplete    = '1'
	msgNoData           = 'n'
	msgPortalSuspended  = 's'
	msgBindComplete     = '2'
	msgCloseComplete    = '3'
	msgCopyInResponse   = 'G'
	msgCopyOutResponse  = 'H'
	msgFunctionCallResp = 'V'
)

// Frontend (client -> server) message type bytes.
const (
	msgQuery     = 'Q'
	msgTerminate = 'X'
	msgPassword  = 'p'
	msgParse     = 'P'
	msgBind      = 'B'
	msgExecute   = 'E'
	msgSync      = 'S'
	msgFlush     = 'H'
	msgDescribe  = 'D'
	msgClose     = 'C'
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
// exact cell bytes a DataRow carries. Exported so wire clients (loadgen's
// oracle selfcheck, tests) can render expected rows the way the server
// does and compare byte-for-byte. NULLs never reach this function on the
// wire (they travel as a -1 length); a null value renders as "NULL", the
// spelling clients use for the nil cell in comparisons.
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

// wireReader decodes frontend messages from a connection.
type wireReader struct {
	r *bufio.Reader
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{r: bufio.NewReader(r)}
}

// startup reads one startup-phase packet: length + payload with no type
// byte. It returns the protocol "version" code and the remaining payload.
func (w *wireReader) startup() (code int32, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(w.r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := int32(binary.BigEndian.Uint32(lenBuf[:]))
	if n < 8 || n > maxMessageLen {
		return 0, nil, fmt.Errorf("startup packet length %d out of range", n)
	}
	body := make([]byte, n-4)
	if _, err := io.ReadFull(w.r, body); err != nil {
		return 0, nil, err
	}
	return int32(binary.BigEndian.Uint32(body[:4])), body[4:], nil
}

// next reads one regular frontend message (type byte + length + payload).
func (w *wireReader) next() (typ byte, payload []byte, err error) {
	t, err := w.r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(w.r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := int32(binary.BigEndian.Uint32(lenBuf[:]))
	if n < 4 || n > maxMessageLen {
		return 0, nil, fmt.Errorf("message %q length %d out of range", t, n)
	}
	body := make([]byte, n-4)
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

// wireWriter encodes backend messages onto a connection. Messages
// accumulate in the bufio layer; flush sends them in one segment, which is
// what keeps a query's RowDescription/DataRow/CommandComplete/ReadyForQuery
// train a single write.
type wireWriter struct {
	w   *bufio.Writer
	buf []byte
}

func newWireWriter(w io.Writer) *wireWriter {
	return &wireWriter{w: bufio.NewWriter(w)}
}

// message begins a backend message of the given type; the returned slice
// accumulates the payload via the append helpers and end() frames it.
func (w *wireWriter) begin() { w.buf = w.buf[:0] }

func (w *wireWriter) end(typ byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(w.buf)+4))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(w.buf)
	return err
}

func (w *wireWriter) flush() error { return w.w.Flush() }

func (w *wireWriter) int16(v int16) { w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(v)) }
func (w *wireWriter) int32(v int32) { w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v)) }
func (w *wireWriter) cstr(s string) { w.buf = append(append(w.buf, s...), 0) }
func (w *wireWriter) bytes(b []byte) {
	w.buf = append(w.buf, b...)
}

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

// dataRow writes one result row in text format.
func (w *wireWriter) dataRow(row exec.Row) error {
	w.begin()
	w.int16(int16(len(row)))
	for _, v := range row {
		if v.IsNull() {
			w.int32(-1)
			continue
		}
		s := textValue(v)
		w.int32(int32(len(s)))
		w.bytes([]byte(s))
	}
	return w.end(msgDataRow)
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
	sqlstateInternalError     = "XX000" // internal_error: the compiled plan failed to execute
	sqlstateQueryCanceled     = "57014" // query_canceled: per-query timeout
	sqlstateTooManyConns      = "53300" // too_many_connections: admission queue full
	sqlstateShutdown          = "57P01" // admin_shutdown: graceful drain
	sqlstateProtocolViolation = "08P01" // protocol_violation: unsupported message
)

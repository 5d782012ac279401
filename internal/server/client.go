package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// Client is a minimal PostgreSQL simple-query-protocol client: enough to
// drive a Server (or a real PostgreSQL) from the load generator and the
// end-to-end tests — startup, Query, result collection, Terminate. One
// query at a time; not safe for concurrent use.
type Client struct {
	conn   net.Conn
	reader *wireReader
	writer *wireWriter
	params map[string]string
}

// QueryResult is one statement's outcome: column names, rows in text
// format (nil cell = NULL), and the server's command tag.
type QueryResult struct {
	Columns []string
	Rows    [][]*string
	Tag     string
}

// ServerError is an ErrorResponse surfaced by Query, carrying the
// SQLSTATE the server attached.
type ServerError struct {
	Severity string
	Code     string
	Message  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("%s (SQLSTATE %s)", e.Message, e.Code)
}

// Dial connects to addr, performs the v3 startup handshake as user/database
// and waits for ReadyForQuery. The timeout bounds the whole handshake
// (0 = no deadline).
func Dial(addr, user, database string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	c := &Client{
		conn:   conn,
		reader: newWireReader(conn, clientReadBufSize),
		writer: newWireWriter(conn),
		params: map[string]string{},
	}
	if err := c.startup(user, database); err != nil {
		conn.Close()
		return nil, err
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	return c, nil
}

// startup sends the StartupMessage and consumes the handshake train.
func (c *Client) startup(user, database string) error {
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, protocolVersion3)
	for _, kv := range [][2]string{{"user", user}, {"database", database}} {
		if kv[1] == "" {
			continue
		}
		payload = append(append(payload, kv[0]...), 0)
		payload = append(append(payload, kv[1]...), 0)
	}
	payload = append(payload, 0)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)+4))
	if _, err := c.conn.Write(append(hdr[:], payload...)); err != nil {
		return err
	}
	for {
		typ, body, err := c.reader.next()
		if err != nil {
			return err
		}
		switch typ {
		case msgAuthentication:
			if len(body) < 4 || binary.BigEndian.Uint32(body[:4]) != 0 {
				return fmt.Errorf("server demands authentication; only trust is supported")
			}
		case msgParameterStatus:
			fields := splitCStrings(body)
			if len(fields) >= 2 {
				c.params[fields[0]] = fields[1]
			}
		case msgBackendKeyData, msgNoticeResponse:
			// ignored
		case msgErrorResponse:
			return decodeError(body)
		case msgReadyForQuery:
			return nil
		default:
			return fmt.Errorf("unexpected handshake message %q", typ)
		}
	}
}

// Parameter returns a ParameterStatus value reported during startup.
func (c *Client) Parameter(key string) string { return c.params[key] }

// Query runs one statement and collects its full result. A server-reported
// failure returns a *ServerError after the stream re-synchronizes on
// ReadyForQuery, so the client stays usable.
func (c *Client) Query(sql string) (*QueryResult, error) {
	c.writer.begin()
	c.writer.cstr(sql)
	if err := c.writer.end(msgQuery); err != nil {
		return nil, err
	}
	if err := c.writer.flush(); err != nil {
		return nil, err
	}
	res := &QueryResult{}
	var srvErr *ServerError
	for {
		typ, body, err := c.reader.next()
		if err != nil {
			return nil, err
		}
		switch typ {
		case msgRowDescription:
			if len(body) < 2 {
				return nil, fmt.Errorf("short RowDescription")
			}
			n := int(binary.BigEndian.Uint16(body[:2]))
			rest := body[2:]
			for i := 0; i < n; i++ {
				name := cString(rest)
				res.Columns = append(res.Columns, name)
				// name NUL + 4 (table oid) + 2 (attnum) + 4 (type oid)
				// + 2 (size) + 4 (typmod) + 2 (format)
				skip := len(name) + 1 + 18
				if skip > len(rest) {
					return nil, fmt.Errorf("short RowDescription field")
				}
				rest = rest[skip:]
			}
		case msgDataRow:
			row, err := decodeDataRow(body)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		case msgCommandComplete:
			res.Tag = cString(body)
		case msgEmptyQuery, msgNoticeResponse, msgParameterStatus:
			// ignored
		case msgErrorResponse:
			srvErr = decodeError(body)
		case msgReadyForQuery:
			if srvErr != nil {
				return nil, srvErr
			}
			return res, nil
		default:
			return nil, fmt.Errorf("unexpected message %q", typ)
		}
	}
}

// Close sends Terminate and closes the connection.
func (c *Client) Close() error {
	c.writer.begin()
	_ = c.writer.end(msgTerminate)
	_ = c.writer.flush()
	return c.conn.Close()
}

// decodeDataRow parses a DataRow body into text cells (nil = NULL). A row
// costs three allocations whatever its width: one string holding the whole
// body, which every cell is a substring of, one []string for the cells and
// the []*string that points into it. Nothing returned aliases body.
func decodeDataRow(body []byte) ([]*string, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("short DataRow")
	}
	n := int(binary.BigEndian.Uint16(body[:2]))
	if n > (len(body)-2)/4 {
		return nil, fmt.Errorf("short DataRow cell header")
	}
	text := string(body)
	cells := make([]string, n)
	row := make([]*string, n)
	off := 2
	for i := range row {
		if len(body)-off < 4 {
			return nil, fmt.Errorf("short DataRow cell header")
		}
		l := int32(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if l < 0 {
			continue
		}
		if int(l) > len(body)-off {
			return nil, fmt.Errorf("short DataRow cell")
		}
		cells[i] = text[off : off+int(l)]
		row[i] = &cells[i]
		off += int(l)
	}
	return row, nil
}

// decodeError parses an ErrorResponse body's tagged fields; a body cut short
// of its last terminator yields the fields it does hold.
func decodeError(body []byte) *ServerError {
	e := &ServerError{}
	rest := body
	for len(rest) > 0 && rest[0] != 0 {
		tag := rest[0]
		val := cString(rest[1:])
		rest = rest[min(len(rest), 1+len(val)+1):]
		switch tag {
		case 'S':
			e.Severity = val
		case 'C':
			e.Code = val
		case 'M':
			e.Message = val
		}
	}
	return e
}

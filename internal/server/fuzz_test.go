package server

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// framed builds one regular message for the fuzz corpora.
func framed(typ byte, payload string) []byte {
	w := newWireWriter(nil)
	w.begin()
	w.buf = append(w.buf, payload...)
	_ = w.end(typ)
	return w.buf
}

// FuzzWireReader feeds hostile bytes to the regular-message reader and to
// every decoder a session or a client hands its payloads to: nothing may
// panic, the reused body buffer never grows past maxMessageLen, and — the
// contract that makes reusing it safe — nothing a decoder returned may alias
// it: the buffer is overwritten after each message and the decoded values
// must not change.
func FuzzWireReader(f *testing.F) {
	f.Add(framed(msgQuery, "SELECT 1\x00"))
	f.Add(append(framed(msgQuery, "SELECT cid FROM clicks\x00"), framed(msgTerminate, "")...))
	f.Add(framed(msgDataRow, "\x00\x02\x00\x00\x00\x01a\xff\xff\xff\xff"))
	f.Add(framed(msgDataRow, "\xff\xff\x00\x00\x00\x01"))
	f.Add(framed(msgErrorResponse, "SERROR\x00C42601\x00Mno\x00\x00"))
	f.Add(framed(msgErrorResponse, "Sno terminator")) // once panicked decodeError
	f.Add(framed(msgParameterStatus, "server_version\x0013.0\x00"))
	f.Add([]byte{msgQuery, 0x7f, 0xff, 0xff, 0xff})
	f.Add([]byte{msgQuery, 0, 0, 0, 3})
	f.Add([]byte{msgQuery, 0, 0x10, 0, 0, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newWireReader(bytes.NewReader(data), 16)
		for {
			_, payload, err := r.next()
			if err != nil {
				return
			}
			if len(payload) > maxMessageLen || cap(r.body) > maxMessageLen {
				t.Fatalf("message body %d bytes in a %d-byte buffer: past maxMessageLen", len(payload), cap(r.body))
			}
			text, fields := cString(payload), splitCStrings(payload)
			row, rowErr := decodeDataRow(payload)
			srvErr := decodeError(payload)
			keep := func() []any { return []any{text, fields, deref(row), rowErr == nil, *srvErr} }
			before := keep()
			for i := range payload {
				payload[i] ^= 0xff
			}
			if after := keep(); !reflect.DeepEqual(before, after) {
				t.Fatalf("a decoded value aliases the reader's buffer:\nbefore %q\n after %q", before, after)
			}
		}
	})
}

// deref copies a decoded row's cells out by value (nil = NULL).
func deref(row []*string) []any {
	out := make([]any, len(row))
	for i, c := range row {
		if c != nil {
			out[i] = *c
		}
	}
	return out
}

// fuzzConn is a connection whose peer is a byte slice.
type fuzzConn struct {
	io.Reader
	io.Writer
}

func (fuzzConn) Close() error                     { return nil }
func (fuzzConn) LocalAddr() net.Addr              { return nil }
func (fuzzConn) RemoteAddr() net.Addr             { return nil }
func (fuzzConn) SetDeadline(time.Time) error      { return nil }
func (fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzStartupPacket feeds hostile bytes to the startup-phase reader and to
// the whole handshake built on it (SSL/GSS refusal loop, cancel requests,
// parameter parsing): nothing may panic and no packet body may exceed
// maxMessageLen.
func FuzzStartupPacket(f *testing.F) {
	startup := func(code uint32, tail string) []byte {
		w := newWireWriter(nil)
		w.int32(int32(len(tail) + 8))
		w.int32(int32(code))
		return append(w.buf, tail...)
	}
	f.Add(startup(protocolVersion3, "user\x00alice\x00database\x00clicks\x00\x00"))
	f.Add(append(startup(sslRequestCode, ""), startup(protocolVersion3, "user\x00u\x00\x00")...))
	f.Add(startup(cancelReqCode, "\x00\x00\x00\x01\x00\x00\x00\x00"))
	f.Add(startup(protocolVersion3, "user"))
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 7, 0, 0, 0})
	f.Add([]byte{0, 0x10, 0, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, payload, err := newWireReader(bytes.NewReader(data), 16).startup(); err == nil {
			if len(payload) > maxMessageLen {
				t.Fatalf("startup payload of %d bytes: past maxMessageLen", len(payload))
			}
			startupParams(payload)
		}
		conn := fuzzConn{bytes.NewReader(data), io.Discard}
		s := &session{conn: conn, reader: newWireReader(conn, 16), writer: newWireWriter(conn)}
		_ = s.handshake()
	})
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"ysmart/internal/datagen"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/plan"
	"ysmart/internal/translator"
)

// session is one client connection: its wire codec, its private simulated
// runtime (DFS + engine) and its live status counters. The private DFS holds
// the server's base tables by reference — the line slices registered with
// the server, shared by every session and never written (DFS ownership
// rule) — so opening a session costs one map entry per table, not one string
// header per line; what is private is the namespace: its view of the tables
// as they were at connect, and the tmp/ and restore/ files of the statement
// it is running, which are dropped when the statement ends. The
// simple query protocol is strictly serial per connection, and a query runs
// on the session's own goroutine — a timeout or a drain stops the run rather
// than leaving it behind — so the runtime never sees concurrent chains.
type session struct {
	id     int64
	srv    *Server
	conn   net.Conn
	reader *wireReader
	writer *wireWriter

	dfs    *mapreduce.DFS
	engine *mapreduce.Engine
	// base holds the DFS paths of the tables installed at connect: after
	// each statement the session keeps only those (dropQueryFiles).
	// Immutable after newSession.
	base map[string]bool

	// reuseEpochs is the validity-epoch snapshot taken when this session
	// installed its base tables (nil when reuse is off). Lookups validate
	// against it, so the session only reuses artifacts consistent with
	// the data it actually serves — a dataset re-registered after connect
	// neither poisons nor borrows this session's artifacts. Immutable
	// after newSession.
	reuseEpochs map[string]int64

	mu       sync.Mutex // guards the status fields below
	remote   string
	user     string
	database string
	started  time.Time
	queries  int64
	hits     int64
	errors   int64
	current  string // normalized SQL of the executing query, "" when idle
}

// SessionStatus is one session's row on the admin plane's /sessions
// endpoint.
type SessionStatus struct {
	ID        int64   `json:"id"`
	Remote    string  `json:"remote"`
	User      string  `json:"user,omitempty"`
	Database  string  `json:"database,omitempty"`
	AgeSecs   float64 `json:"age_seconds"`
	Queries   int64   `json:"queries"`
	CacheHits int64   `json:"cache_hits"`
	Errors    int64   `json:"errors"`
	Current   string  `json:"current_query,omitempty"`
}

// status snapshots the session for /sessions.
func (s *session) status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStatus{
		ID:        s.id,
		Remote:    s.remote,
		User:      s.user,
		Database:  s.database,
		AgeSecs:   time.Since(s.started).Seconds(),
		Queries:   s.queries,
		CacheHits: s.hits,
		Errors:    s.errors,
		Current:   s.current,
	}
}

// newSession builds a session over an accepted connection with a fresh
// runtime sharing the server's pre-encoded table lines.
func newSession(srv *Server, id int64, conn net.Conn) (*session, error) {
	cluster := srv.cfg.Cluster()
	eng, err := mapreduce.NewEngine(mapreduce.NewDFS(), cluster)
	if err != nil {
		return nil, err
	}
	if srv.cfg.Workers > 0 {
		eng.SetWorkers(srv.cfg.Workers)
	}
	// All session engines record into the server's shared registry, so
	// /metrics merges per-job histograms across every connection; the
	// engine event stream joins the server's structured log.
	eng.Instrument(nil, srv.reg)
	eng.SetLogger(srv.logger)
	s := &session{
		id:      id,
		srv:     srv,
		conn:    conn,
		reader:  newWireReader(conn, serverReadBufSize),
		writer:  newWireWriter(conn),
		dfs:     eng.DFS(),
		engine:  eng,
		remote:  conn.RemoteAddr().String(),
		started: time.Now(),
	}
	// The caller (acceptLoop) holds srv.mu, so the table install and — with
	// reuse on — the epoch snapshot are atomic against RegisterDataset, which
	// replaces a table's slice and never writes to one.
	s.base = make(map[string]bool, len(srv.tables))
	for name, lines := range srv.tables {
		s.dfs.WriteShared(translator.TablePath(name), lines)
		s.base[translator.TablePath(name)] = true
	}
	if srv.store != nil {
		paths := make([]string, 0, len(srv.tables))
		for name := range srv.tables {
			paths = append(paths, translator.TablePath(name))
		}
		s.reuseEpochs = srv.store.SnapshotEpochs(paths)
	}
	return s, nil
}

// serve runs the whole connection: startup negotiation, the query loop,
// teardown. It never panics the server: any protocol or IO error just ends
// the session, and so does a panic, after a best-effort XX000 (a query's
// admission slot comes back through its deferred release).
func (s *session) serve() {
	defer s.conn.Close()
	defer func() {
		if r := recover(); r != nil {
			s.srv.logf(obs.LevelError, "session.panic", s.id, fmt.Sprintf("%v\n%s", r, debug.Stack()))
			_ = s.writer.errorResponse(sqlstateInternalError, fmt.Sprintf("internal error: %v", r))
			_ = s.writer.flush()
		}
	}()
	if err := s.handshake(); err != nil {
		s.srv.logf(obs.LevelWarn, "session.handshake_failed", s.id, err.Error())
		return
	}
	s.srv.logf(obs.LevelInfo, "session.open", s.id, s.remote)
	for {
		typ, payload, err := s.reader.next()
		if err != nil {
			s.srv.logf(obs.LevelInfo, "session.closed", s.id, err.Error())
			return
		}
		switch typ {
		case msgQuery:
			if err := s.handleQuery(cString(payload)); err != nil {
				s.srv.logf(obs.LevelInfo, "session.write_failed", s.id, err.Error())
				return
			}
		case msgTerminate:
			s.srv.logf(obs.LevelInfo, "session.terminated", s.id, s.remote)
			return
		default:
			// Extended-protocol or copy messages: refuse politely and keep
			// the connection usable for simple queries.
			_ = s.writer.errorResponse(sqlstateProtocolViolation,
				fmt.Sprintf("unsupported frontend message %q; only the simple query protocol is served", typ))
			if err := s.writer.readyForQuery(); err != nil {
				return
			}
		}
	}
}

// handshake performs the startup exchange: SSL/GSS refusal, the v3
// StartupMessage, trust auth, parameter reports and the first
// ReadyForQuery.
func (s *session) handshake() error {
	for {
		code, payload, err := s.reader.startup()
		if err != nil {
			return err
		}
		switch code {
		case sslRequestCode, gssEncReqCode:
			// Refuse encryption; psql falls back to plaintext.
			if _, err := s.conn.Write([]byte{'N'}); err != nil {
				return err
			}
		case cancelReqCode:
			// Cancellation connections carry no session; just drop them.
			return fmt.Errorf("cancel request connection")
		case protocolVersion3:
			params := startupParams(payload)
			s.mu.Lock()
			s.user = params["user"]
			s.database = params["database"]
			s.mu.Unlock()
			if err := s.writer.authenticationOk(); err != nil {
				return err
			}
			for _, kv := range [][2]string{
				{"server_version", "13.0 (ysmart simulated)"},
				{"server_encoding", "UTF8"},
				{"client_encoding", "UTF8"},
				{"DateStyle", "ISO, MDY"},
				{"integer_datetimes", "on"},
				{"standard_conforming_strings", "on"},
			} {
				if err := s.writer.parameterStatus(kv[0], kv[1]); err != nil {
					return err
				}
			}
			if err := s.writer.backendKeyData(int32(s.id), 0); err != nil {
				return err
			}
			return s.writer.readyForQuery()
		default:
			return fmt.Errorf("unsupported protocol version %d", code)
		}
	}
}

// handleQuery answers one simple Query message. The returned error is an IO
// error on the connection; query failures are reported to the client and
// return nil.
func (s *session) handleQuery(sql string) error {
	trimmed := strings.TrimSpace(sql)
	for strings.HasSuffix(trimmed, ";") {
		trimmed = strings.TrimSpace(strings.TrimSuffix(trimmed, ";"))
	}
	if trimmed == "" {
		if err := s.writer.emptyQueryResponse(); err != nil {
			return err
		}
		return s.writer.readyForQuery()
	}
	if tag, ok := sessionCommand(trimmed); ok {
		// SET/BEGIN/COMMIT-style session commands psql may send: accepted
		// as no-ops so scripts and \timing work against the simulator.
		if err := s.writer.commandComplete(tag); err != nil {
			return err
		}
		return s.writer.readyForQuery()
	}

	start := time.Now()
	err := s.runQuery(trimmed, start)
	var dead connError
	if errors.As(err, &dead) {
		return err
	}
	if err != nil {
		s.mu.Lock()
		s.errors++
		s.mu.Unlock()
		sqlstate := sqlstateSyntaxError
		var execErr runError
		switch {
		case errors.As(err, &execErr):
			sqlstate = sqlstateInternalError
		case errors.Is(err, plan.ErrUnsupported):
			sqlstate = sqlstateNotSupported
		case errors.Is(err, ErrQueryTimeout):
			sqlstate = sqlstateQueryCanceled
		case errors.Is(err, ErrQueueFull):
			sqlstate = sqlstateTooManyConns
		case errors.Is(err, ErrDraining):
			sqlstate = sqlstateShutdown
		}
		s.srv.reg.Add("ysmart_server_query_errors_total", 1)
		if werr := s.writer.errorResponse(sqlstate, err.Error()); werr != nil {
			return werr
		}
	}
	return s.writer.readyForQuery()
}

// runError marks a failure of translator.Run or of reading its result: the
// statement compiled, so what went wrong is the server's (internal_error),
// not the client's SQL.
type runError struct{ error }

// connError marks a failed write to the client connection. There is nobody
// left to report it to: the session ends without attempting an
// ErrorResponse.
type connError struct{ error }

// runQuery resolves, admits and executes one statement, streaming its
// result. Client-facing failures come back as errors to be reported in an
// ErrorResponse; a connError ends the session instead.
func (s *session) runQuery(sql string, start time.Time) error {
	srv := s.srv
	p, err := srv.cache.Get(sql)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.queries++
	if p.Hit {
		s.hits++
	}
	s.current = p.Normalized
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.current = ""
		s.mu.Unlock()
	}()

	// Without a timeout the run takes the server's base context as is; with
	// one, a deadline under it. Either way Shutdown's cancel reaches it.
	ctx := srv.ctx
	var deadline time.Time
	if srv.cfg.QueryTimeout > 0 {
		deadline = start.Add(srv.cfg.QueryTimeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	release, err := srv.admission.Acquire(deadline)
	if err != nil {
		return err
	}
	defer s.dropQueryFiles()
	res, err := s.run(ctx, p, release)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		srv.reg.Add("ysmart_server_query_timeouts_total", 1)
		srv.logf(obs.LevelWarn, "session.query_timeout", s.id, p.Normalized)
		return fmt.Errorf("%w after %s, run stopped: %v", ErrQueryTimeout, srv.cfg.QueryTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w, run stopped: %v", ErrDraining, err)
	case err != nil:
		return runError{err}
	}
	srv.reg.Observe("ysmart_server_query_seconds", time.Since(start).Seconds())
	srv.reg.Add("ysmart_server_queries_total", 1)
	streamed := time.Now()
	if err := s.streamResult(p.Schema, res); err != nil {
		return err
	}
	srv.reg.Observe("ysmart_server_stream_seconds", time.Since(streamed).Seconds())
	return nil
}

// run executes the shared, read-only plan on the session's runtime (as
// compiled when reuse is off: the store is nil) and returns the admission
// slot on every way out, a panic included, before any reply is written.
func (s *session) run(ctx context.Context, p *Plan, release func()) (*translator.Result, error) {
	defer release()
	return translator.Run(ctx, p.Translation, s.engine, s.srv.store, s.reuseEpochs)
}

// dropQueryFiles removes every DFS file but the session's base tables: a
// statement's intermediate and result files, and the reuse artifacts it
// installed, are its own and die with it, on every way out of runQuery
// that ran it. Only map entries go, so the base tables, the store's
// artifacts and a result still being streamed keep their lines.
func (s *session) dropQueryFiles() { s.dfs.Retain(s.base) }

// streamResult sends RowDescription, one DataRow per line of the result file
// — rendered from the line's text straight into the write buffer, which goes
// to the socket every time it fills, so no row set is ever built and the
// client is reading the first rows while the last are still being parsed —
// and CommandComplete with the row count taken on the way. A line the schema
// cannot parse ends the result as a runError after the rows already sent
// (the admission slot was released when the run ended, so a slow reader
// holds only its own session).
func (s *session) streamResult(schema *exec.Schema, res *translator.Result) error {
	w := s.writer
	if err := w.rowDescription(schema); err != nil {
		return connError{err}
	}
	n := 0
	err := res.EachRow(func(payload string) error {
		n++
		return w.dataRow(payload, schema)
	})
	if w.err != nil {
		return connError{w.err}
	}
	if err != nil {
		return runError{err}
	}
	if err := w.commandComplete("SELECT " + strconv.Itoa(n)); err != nil {
		return connError{err}
	}
	return nil
}

// sessionCommand recognizes statements a SQL client sends for session
// management; they are accepted as no-ops with their usual command tag. It
// reads the first word in place, case-insensitively, so a query that is
// not one costs no allocation.
func sessionCommand(sql string) (tag string, ok bool) {
	first := sql
	if i := strings.IndexAny(sql, " \t\r\n"); i >= 0 {
		first = sql[:i]
	}
	for _, c := range sessionCommands {
		if strings.EqualFold(first, c.word) {
			return c.tag, true
		}
	}
	return "", false
}

// sessionCommands maps the first word of each session statement to its
// command tag.
var sessionCommands = [...]struct{ word, tag string }{
	{"SET", "SET"},
	{"BEGIN", "BEGIN"}, {"START", "BEGIN"},
	{"COMMIT", "COMMIT"}, {"END", "COMMIT"},
	{"ROLLBACK", "ROLLBACK"}, {"ABORT", "ROLLBACK"},
	{"RESET", "RESET"},
	{"DISCARD", "DISCARD"},
	{"DEALLOCATE", "DEALLOCATE"},
}

// EncodeTables renders every table's rows in the engine row codec once, so
// sessions can share the immutable encoded lines instead of re-encoding per
// connection.
func EncodeTables(tables map[string][]exec.Row) map[string][]string {
	out := make(map[string][]string, len(tables))
	for name, rows := range tables {
		out[name] = datagen.Lines(rows)
	}
	return out
}

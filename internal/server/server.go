package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/plan"
	"ysmart/internal/reuse"
	"ysmart/internal/translator"
)

// Config tunes a Server. The zero value is not usable; fill the required
// fields and call New.
type Config struct {
	// Catalog resolves table names for planning. Required.
	Catalog plan.Catalog
	// Cluster builds the simulated cluster model of one session runtime
	// (each session gets a private engine; the engine only reads the
	// model, so the factory may hand every session the same one).
	// Required.
	Cluster func() *mapreduce.Cluster
	// Mode is the translation mode (defaults to YSmart).
	Mode translator.Mode
	// Workers sets each session engine's worker-pool size (0 = NumCPU).
	Workers int
	// MaxInflight bounds concurrently executing queries (< 1 means 1).
	MaxInflight int
	// MaxQueued bounds the admission FIFO queue (< 0 means 0).
	MaxQueued int
	// QueryTimeout bounds one query's admission wait + execution
	// (0 = unlimited). A run that exceeds it stops at the engine's next work
	// item and frees its slot; then the client gets SQLSTATE 57014.
	QueryTimeout time.Duration
	// CacheSize bounds the plan cache's entry count (< 1 means 1).
	CacheSize int
	// Registry receives server metrics (nil: a private registry).
	Registry *obs.Registry
	// Logger receives structured server events (nil: silent).
	Logger *obs.Logger
	// Manimal enables the MANIMAL-style scan rewrites on translated
	// plans: every lowered chain gets the early filters its scan facts
	// prove sound, and optimized plans are cached under keys (and DFS
	// path prefixes) disjoint from plain ones. Reuse artifacts are shared
	// with plain plans, whose bytes optimized plans write exactly.
	Manimal bool
	// Reuse enables the cross-query materialized-output store: job
	// outputs are recorded under canonical sub-plan fingerprints and
	// later queries — from any session — skip jobs whose artifacts are
	// still valid. Re-registering a dataset (RegisterDataset) bumps its
	// validity epoch, forcing dependent artifacts cold.
	Reuse bool
	// ReuseCapBytes bounds the reuse store's artifact bytes (0 =
	// unbounded); the cost-model eviction policy decides what survives.
	ReuseCapBytes int64
}

// Server is the long-running SQL service: a TCP listener speaking the
// PostgreSQL simple query protocol, a shared plan cache, a shared admission
// controller, and one session per connection. Start it with Serve on a
// listener; stop it with Shutdown.
type Server struct {
	cfg       Config
	cache     *PlanCache
	admission *Admission
	reg       *obs.Registry
	logger    *obs.Logger
	store     *reuse.Store // nil unless Config.Reuse
	// tables holds the pre-encoded base table lines. The map is guarded by
	// mu; the slices are immutable — every session's DFS holds them by
	// reference — so a dataset changes by replacing its entry.
	tables map[string][]string
	// ctx is every run's base context; Shutdown cancels it when the drain
	// times out, which stops the runs still in flight.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	sessions map[int64]*session
	nextID   int64
	closed   bool
	wg       sync.WaitGroup
}

// New builds a server from cfg and the datasets to register (pre-encoded
// lines, as from EncodeTables; encoded once, shared by every session — the
// server keeps the slices and nobody, the caller included, may write to
// them afterwards). It does not listen yet.
func New(cfg Config, tables map[string][]string) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("server: Config.Catalog is required")
	}
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("server: Config.Cluster is required")
	}
	// Every session builds its engine from this factory; a model no engine
	// accepts would fail each accept instead of this call.
	if err := cfg.Cluster().Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Mode == 0 {
		cfg.Mode = translator.YSmart
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Copy the dataset map: RegisterDataset mutates it later, and the
	// caller's map must not change under them.
	cp := make(map[string][]string, len(tables))
	for name, lines := range tables {
		cp[name] = lines
	}
	tables = cp
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		ctx:       ctx,
		cancel:    cancel,
		cfg:       cfg,
		reg:       reg,
		logger:    cfg.Logger,
		tables:    tables,
		cache:     NewPlanCache(cfg.CacheSize, cfg.Mode, cfg.Catalog, reg),
		admission: NewAdmission(cfg.MaxInflight, cfg.MaxQueued, reg),
		sessions:  make(map[int64]*session),
	}
	s.cache.SetOptimize(cfg.Manimal)
	if cfg.Reuse {
		s.store = reuse.NewStore(cfg.ReuseCapBytes, reg)
	}
	percent, source := paceGC()
	if s.logger.Enabled(obs.LevelInfo) {
		s.logger.Info("server.gc_policy", obs.F("percent", int64(percent)), obs.F("source", source))
	}
	return s, nil
}

// gcPercent is the GC percent a server process runs at unless GOGC says
// otherwise. A statement leaves nothing behind, so the live heap between
// statements is a few megabytes; below about 4 MB Go's pacer collects
// every (4 MB - live) bytes, which at the default 100 means a collection
// every one or two queries. 400 was measured against 100, 200 and 800 on
// the four bench workloads (EXPERIMENTS.md, "Memory and GC pacing"). The
// memory limit is left to the runtime: GOMEMLIMIT caps RSS where that
// matters more than CPU.
const gcPercent = 400

// paceGC sets the process's GC percent to gcPercent the first time a
// server is built, unless GOGC is in the environment, whose setting the
// runtime already applied and which then stands. It returns the percent
// in force (-1: collection off) and where it came from: "GOGC" or
// "server".
var paceGC = sync.OnceValues(func() (percent int, source string) {
	if _, ok := os.LookupEnv("GOGC"); ok {
		// Read the percent back: setting it returns the old one.
		percent = debug.SetGCPercent(-1)
		debug.SetGCPercent(percent)
		return percent, "GOGC"
	}
	debug.SetGCPercent(gcPercent)
	return gcPercent, "server"
})

// ReuseStore exposes the cross-query reuse store (nil when Config.Reuse
// is off) for stats endpoints and tests.
func (s *Server) ReuseStore() *reuse.Store { return s.store }

// RegisterDataset registers or replaces a dataset (pre-encoded lines, as
// from EncodeTables; copied, so the caller keeps its slice). Sessions
// opened after the call are preloaded with the new content, sessions
// already open keep the slice they hold; with reuse enabled, the table's
// validity epoch is bumped under the same lock, so artifacts derived from
// the old content are never served against the new data (and vice versa —
// each session validates lookups against the epoch snapshot taken when its
// tables were installed).
func (s *Server) RegisterDataset(name string, lines []string) {
	cp := append([]string(nil), lines...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[name] = cp
	if s.store != nil {
		s.store.BumpPath(translator.TablePath(name))
	}
}

// Registry exposes the server's metrics registry (for the admin plane).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cache exposes the shared plan cache (for stats endpoints and tests).
func (s *Server) Cache() *PlanCache { return s.cache }

// Admission exposes the shared admission controller.
func (s *Server) Admission() *Admission { return s.admission }

// Listen binds addr (host:port; port 0 picks a free port) and starts
// serving connections in background goroutines. It returns the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr().String(), nil
}

// acceptLoop accepts until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // Shutdown closed the listener
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.nextID++
		id := s.nextID
		sess, err := newSession(s, id, conn)
		if err != nil {
			s.mu.Unlock()
			s.logf(obs.LevelError, "session.init_failed", id, err.Error())
			conn.Close()
			continue
		}
		s.sessions[id] = sess
		s.reg.Set("ysmart_server_sessions", float64(len(s.sessions)))
		s.reg.Add("ysmart_server_connections_total", 1)
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sess.serve()
			s.mu.Lock()
			delete(s.sessions, id)
			s.reg.Set("ysmart_server_sessions", float64(len(s.sessions)))
			s.mu.Unlock()
		}()
	}
}

// Sessions snapshots every live session for the admin plane's /sessions
// endpoint, sorted by session id.
func (s *Server) Sessions() []SessionStatus {
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	out := make([]SessionStatus, len(live))
	for i, sess := range live {
		out[i] = sess.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Shutdown stops the server gracefully: the listener closes, the admission
// controller drains (queued queries rejected, in-flight queries given up to
// timeout to finish, then cancelled at their engine's next work item), and
// once every slot is back every session connection is closed. It reports
// whether the drain reached idle within the timeout; when it returns,
// nothing the server started is still running.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	idle := s.admission.Drain(timeout)
	if !idle {
		s.cancel()
		s.admission.Drain(0)
	}
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.logf(obs.LevelInfo, "server.shutdown", 0, fmt.Sprintf("drained=%v", idle))
	return idle
}

// logf emits one structured server event tagged with the session id.
func (s *Server) logf(level obs.Level, event string, sessionID int64, detail string) {
	if !s.logger.Enabled(level) {
		return
	}
	fields := []obs.Field{obs.F("session", sessionID), obs.F("detail", detail)}
	switch level {
	case obs.LevelError:
		s.logger.Error(event, fields...)
	case obs.LevelWarn:
		s.logger.Warn(event, fields...)
	default:
		s.logger.Info(event, fields...)
	}
}

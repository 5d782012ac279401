// Package httpserve is the embedded admin HTTP plane of the simulator's
// observability layer: a small server any binary can hang off a -listen
// flag to expose, while work is running,
//
//   - /metrics        the obs.Registry in Prometheus text format
//     (counter/gauge lines plus _bucket/_sum/_count
//     histogram families),
//   - /debug/pprof/*  the Go runtime profiler,
//   - /trace          the collected span stream as a Chrome trace-event
//     JSON download (loadable in Perfetto), and
//   - /jobs           a live JSON snapshot of job/chain status supplied
//     by the hosting command.
//
// The server only ever reads: the registry and collector are the
// concurrency-safe types producers already write through, and the jobs
// callback returns a snapshot the host builds under its own lock, so
// scraping never perturbs a run.
package httpserve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"ysmart/internal/obs"
)

// JobsFunc returns the host's live job/chain status. The returned value
// is marshalled as JSON; it must be a snapshot safe to read after return.
type JobsFunc func() any

// Server is the admin HTTP endpoint set over one registry and collector.
type Server struct {
	mux *http.ServeMux

	mu   sync.Mutex
	reg  *obs.Registry
	col  *obs.Collector
	jobs JobsFunc

	ln  net.Listener
	srv *http.Server
}

// New builds a server over a registry (may be nil: /metrics serves an
// empty dump), a trace collector (may be nil: /trace serves an empty
// trace) and a jobs callback (may be nil: /jobs serves null).
func New(reg *obs.Registry, col *obs.Collector, jobs JobsFunc) *Server {
	s := &Server{reg: reg, col: col, jobs: jobs, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// SetJobs swaps the live-status callback (e.g. once a load run has built
// its worker state). Safe to call while serving.
func (s *Server) SetJobs(jobs JobsFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs = jobs
}

// Handle registers an extra endpoint on the admin mux (e.g. the SQL
// server's /sessions). It must be called before Start; the path appears in
// the root index only if the host adds it there itself.
func (s *Server) Handle(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, h)
}

// JSONHandler adapts a snapshot callback into an endpoint serving its
// result as indented JSON — the same shape /jobs uses, for hosts exposing
// additional live views (sessions, cache stats).
func JSONHandler(snapshot func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// Handler returns the server's routing handler, for tests and for embedding
// into an existing http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free port) and serves
// in a background goroutine. It returns the bound address, so callers
// using ":0" learn the real port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("admin listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// handleIndex lists the endpoints, so a browser hitting the root finds
// its way around.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ysmart admin endpoints:\n"+
		"  /metrics       Prometheus text exposition (histograms as _bucket/_sum/_count)\n"+
		"  /jobs          live job/chain status (JSON)\n"+
		"  /trace         Chrome trace-event JSON download (Perfetto)\n"+
		"  /debug/pprof/  Go runtime profiles\n")
}

// handleMetrics serves the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, reg)
}

// handleTrace serves the collector's events as a Chrome trace download.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	col := s.col
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="ysmart-trace.json"`)
	_, _ = w.Write(obs.ChromeTrace(col.Events()))
}

// handleJobs serves the host's live status snapshot as indented JSON.
func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := s.jobs
	s.mu.Unlock()
	var v any
	if jobs != nil {
		v = jobs()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

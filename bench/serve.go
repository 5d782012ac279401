package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/queries"
	"ysmart/internal/server"
)

// ctlRequest is one line on the child's control endpoint (its stdin; the
// reply is one JSON line on its stdout). The endpoint is a pipe pair owned
// by the benchmark, not a port: the child exits when its stdin closes, so
// it cannot outlive a parent that died without cleaning up.
type ctlRequest struct {
	Op      string `json:"op"` // "register" or "stats"
	Version int    `json:"version,omitempty"`
	GC      bool   `json:"gc,omitempty"`   // stats: force a collection first
	Hist    bool   `json:"hist,omitempty"` // stats: also read the admission-wait histogram
}

// childReady is the child's first output line.
type childReady struct {
	Addr string `json:"addr"`
	Pid  int    `json:"pid"`
}

// childStats is the reply to "stats": process-wide resource counters of
// the server process plus the registry values the ledger reads.
type childStats struct {
	CPUSeconds   float64 `json:"cpu_s"` // user+sys, getrusage(RUSAGE_SELF)
	TotalAlloc   uint64  `json:"total_alloc"`
	Mallocs      uint64  `json:"mallocs"`
	HeapAlloc    uint64  `json:"heap_alloc"`
	NumGC        uint32  `json:"num_gc"`
	PauseTotalNs uint64  `json:"pause_total_ns"`
	// Counters holds the registry's value for every name in
	// ledgerCounters (absent names read 0).
	Counters map[string]float64 `json:"counters"`
	// AdmissionWaitSum/Count total ysmart_server_admission_wait_seconds
	// (filled only on request: reading a histogram snapshots the registry).
	AdmissionWaitSum   float64 `json:"admission_wait_sum_s"`
	AdmissionWaitCount uint64  `json:"admission_wait_count"`
}

// ledgerCounters are the registry names the per-layer ledger is built
// from. The child reads them by name rather than dumping the registry:
// plan_cold grows one drift gauge per distinct job name.
var ledgerCounters = []string{
	"ysmart_engine_jobs_total",
	"ysmart_engine_map_input_records_total",
	"ysmart_engine_map_output_records_total",
	"ysmart_engine_shuffle_bytes_total",
	"ysmart_engine_reduce_groups_total",
	"ysmart_engine_reduce_output_bytes_total",
	"ysmart_engine_sim_seconds_total",
	"ysmart_dfs_write_bytes_total",
	"ysmart_dfs_read_bytes_total",
	"ysmart_server_plancache_hits_total",
	"ysmart_server_plancache_misses_total",
	"ysmart_server_plancache_evictions_total",
	"ysmart_server_plancache_retranslations_total",
	"ysmart_reuse_hits_total",
	"ysmart_reuse_misses_total",
	"ysmart_reuse_records_total",
	"ysmart_reuse_invalidations_total",
	"ysmart_reuse_evictions_total",
	"ysmart_reuse_bytes_saved_total",
	"ysmart_reuse_store_bytes",
}

// serverConfig is the server.Config a workload runs under; the child and
// the traced in-process replay share it.
func (s *spec) serverConfig(reg *obs.Registry) server.Config {
	return server.Config{
		Catalog:       queries.Catalog(),
		Cluster:       mapreduce.SmallCluster,
		Workers:       s.workers,
		MaxInflight:   4,
		MaxQueued:     64,
		CacheSize:     s.cacheSize,
		Registry:      reg,
		Manimal:       s.manimal,
		Reuse:         s.reuse,
		ReuseCapBytes: s.reuseCapBytes,
	}
}

// encodedVersions generates and encodes the workload's tables: element v
// holds every table at orders+lineitem version v.
func (s *spec) encodedVersions(seed int64) ([]map[string][]string, error) {
	var out []map[string][]string
	for v := 0; v < s.versions; v++ {
		tables, err := s.generate(seed, v)
		if err != nil {
			return nil, err
		}
		out = append(out, server.EncodeTables(tables))
	}
	return out, nil
}

// serveMain is `bench serve`: host the real internal/server over generated
// datasets and answer the control endpoint until stdin closes.
func serveMain(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench serve", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "dataset seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := findSpec(*workload)
	if err != nil {
		return err
	}
	versions, err := s.encodedVersions(*seed)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	srv, err := server.New(s.serverConfig(reg), versions[0])
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Shutdown(2 * time.Second)

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(childReady{Addr: addr, Pid: os.Getpid()}); err != nil {
		return err
	}
	in := bufio.NewScanner(stdin)
	for in.Scan() {
		var req ctlRequest
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			return fmt.Errorf("control request: %w", err)
		}
		switch req.Op {
		case "register":
			if req.Version < 0 || req.Version >= len(versions) {
				return fmt.Errorf("control: no dataset version %d", req.Version)
			}
			srv.RegisterDataset("orders", versions[req.Version]["orders"])
			srv.RegisterDataset("lineitem", versions[req.Version]["lineitem"])
			err = enc.Encode(struct{}{})
		case "stats":
			err = enc.Encode(readChildStats(reg, req.GC, req.Hist))
		default:
			return fmt.Errorf("control: unknown op %q", req.Op)
		}
		if err != nil {
			return err
		}
	}
	return in.Err()
}

func readChildStats(reg *obs.Registry, gc, hist bool) childStats {
	if gc {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := childStats{
		CPUSeconds:   selfCPUSeconds(),
		TotalAlloc:   ms.TotalAlloc,
		Mallocs:      ms.Mallocs,
		HeapAlloc:    ms.HeapAlloc,
		NumGC:        ms.NumGC,
		PauseTotalNs: ms.PauseTotalNs,
		Counters:     make(map[string]float64, len(ledgerCounters)),
	}
	for _, name := range ledgerCounters {
		st.Counters[name] = reg.Value(name)
	}
	if hist {
		for _, m := range reg.Snapshot() {
			if m.Name == "ysmart_server_admission_wait_seconds" && m.Hist != nil {
				st.AdmissionWaitSum, st.AdmissionWaitCount = m.Hist.Sum, m.Hist.Count
			}
		}
	}
	return st
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

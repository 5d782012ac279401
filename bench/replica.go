package main

import (
	"time"

	"ysmart/internal/correlation"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/optanalysis"
	"ysmart/internal/plan"
	"ysmart/internal/reuse"
	"ysmart/internal/server"
	"ysmart/internal/sqlparser"
	"ysmart/internal/translator"
)

// span is one recorded layer call. The spans of one request share Op; a
// layer span's Parent is "op", the request's own span has Parent "".
// Layer spans never nest (the benchmark records only around its calls into
// each layer), so a layer's self time is its duration and the op span's
// self time is its duration minus its children's.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a disabled tracer still runs the calls.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) record(name string, op int, parent string, f func()) {
	if !t.on {
		f()
		return
	}
	start := time.Since(t.t0)
	f()
	t.spans = append(t.spans, span{name, op, parent, int64(start), int64(time.Since(t.t0))})
}

// layer records a layer span under the current op.
func (t *tracer) layer(name string, op int, f func()) { t.record(name, op, "op", f) }

// replica is the hand-assembled in-process copy of the serving path the
// traced run walks: it calls each layer's public function in the order
// session.runQuery and PlanCache.build do, with a span around each call.
// It exists because no span may yet go inside the program (ROADMAP item
// 3); when the single pipeline of item 2 lands, its stages replace this.
type replica struct {
	spec     *spec
	cat      plan.MapCatalog
	reg      *obs.Registry
	versions []map[string][]string
	tables   map[string][]string
	store    *reuse.Store
	adm      *server.Admission
	tr       *tracer

	// The plan cache stand-in: one leased translation per key, evicted
	// first-in-first-out at the workload's cache size (identical to LRU
	// for keys that never repeat; repeating workloads stay under the cap).
	plans map[string]*translator.Translation
	order []string

	// The current session: a private DFS + engine preloaded with the
	// tables, and the reuse epochs snapshotted at connect.
	dfs    *mapreduce.DFS
	engine *mapreduce.Engine
	epochs map[string]int64

	coldOps  int   // ops whose chain ran at least one job
	filtered int64 // lines MANIMAL prefilters rejected
}

func newReplica(s *spec, seed int64, tr *tracer) (*replica, error) {
	versions, err := s.encodedVersions(seed)
	if err != nil {
		return nil, err
	}
	r := &replica{
		spec: s, reg: obs.NewRegistry(), versions: versions, tr: tr,
		tables: map[string][]string{},
		plans:  map[string]*translator.Translation{},
	}
	cfg := s.serverConfig(r.reg)
	r.cat = cfg.Catalog.(plan.MapCatalog)
	for name, lines := range versions[0] {
		r.tables[name] = lines
	}
	r.adm = server.NewAdmission(cfg.MaxInflight, cfg.MaxQueued, r.reg)
	if s.reuse {
		r.store = reuse.NewStore(s.reuseCapBytes, r.reg)
	}
	return r, r.connect(-1)
}

// register mirrors Server.RegisterDataset for orders and lineitem.
func (r *replica) register(version int) {
	for _, name := range []string{"orders", "lineitem"} {
		r.tables[name] = append([]string(nil), r.versions[version][name]...)
		if r.store != nil {
			r.store.BumpPath(translator.TablePath(name))
		}
	}
}

// connect mirrors newSession: a fresh engine, the table copy into its
// private DFS and the epoch snapshot.
func (r *replica) connect(op int) error {
	var err error
	r.tr.record("server.connect", op, "", func() {
		var eng *mapreduce.Engine
		if eng, err = mapreduce.NewEngine(mapreduce.NewDFS(), mapreduce.SmallCluster()); err != nil {
			return
		}
		eng.SetWorkers(r.spec.workers)
		eng.Instrument(nil, r.reg)
		r.engine, r.dfs = eng, eng.DFS()
		paths := make([]string, 0, len(r.tables))
		for name, lines := range r.tables {
			r.dfs.Write(translator.TablePath(name), lines)
			paths = append(paths, translator.TablePath(name))
		}
		if r.store != nil {
			r.epochs = r.store.SnapshotEpochs(paths)
		}
	})
	return err
}

// plan resolves sql to a translation: the cache key, and on a miss the
// whole front end, layer by layer.
func (r *replica) plan(id int, sql string) (*translator.Translation, error) {
	t := r.tr
	var key string
	var err error
	t.layer("translator.normalize", id, func() {
		key, err = translator.CacheKeyOpt(sql, translator.YSmart, r.spec.manimal)
	})
	if err != nil {
		return nil, err
	}
	if tr, ok := r.plans[key]; ok {
		return tr, nil
	}
	var stmt *sqlparser.SelectStmt
	t.layer("sqlparser.parse", id, func() { stmt, err = sqlparser.Parse(sql) })
	if err != nil {
		return nil, err
	}
	var root plan.Node
	t.layer("plan.build", id, func() { root, err = plan.Build(stmt, r.cat) })
	if err != nil {
		return nil, err
	}
	var a *correlation.Analysis
	t.layer("correlation.analyze", id, func() { a, err = correlation.Analyze(root) })
	if err != nil {
		return nil, err
	}
	t.layer("translator.normalize", id, func() { _, err = translator.NormalizeSQL(sql) })
	var tr *translator.Translation
	t.layer("translator.translate", id, func() {
		tr, err = translator.TranslateAnalyzed(a, translator.YSmart, translator.Options{QueryName: translator.QueryTag(key)})
	})
	if err != nil {
		return nil, err
	}
	if r.spec.manimal {
		t.layer("optanalysis.apply", id, func() { optanalysis.ApplyTranslation(tr) })
	}
	r.plans[key] = tr
	r.order = append(r.order, key)
	if len(r.order) > r.spec.cacheSize {
		delete(r.plans, r.order[0])
		r.order = r.order[1:]
	}
	return tr, nil
}

// query answers one statement the way a session does and returns the
// digest of what it would have put on the wire.
func (r *replica) query(id int, sql string) (digest, error) {
	t := r.tr
	var rows []exec.Row
	var err error
	t.record("op", id, "", func() {
		var tr *translator.Translation
		if tr, err = r.plan(id, sql); err != nil {
			return
		}
		var release func()
		t.layer("server.admission.acquire", id, func() { release, err = r.adm.Acquire(time.Time{}) })
		if err != nil {
			return
		}
		defer release()
		jobs, read := tr.Jobs, tr.ReadResult
		var rp *translator.ReusePlan
		if r.store != nil {
			t.layer("translator.apply_reuse", id, func() { rp = translator.ApplyReuseAt(tr, r.store, r.dfs, r.epochs) })
			jobs, read = rp.Jobs, rp.ReadResult
		}
		var stats *mapreduce.ChainStats
		t.layer("mapreduce.run_chain", id, func() { stats, err = r.engine.RunChain(jobs) })
		if err != nil {
			return
		}
		t.layer("translator.read_result", id, func() { rows, err = read(r.dfs) })
		if err != nil {
			return
		}
		if rp != nil {
			t.layer("translator.reuse_record", id, func() { rp.Record(r.store, r.dfs, stats) })
		}
		if len(jobs) > 0 {
			r.coldOps++
		}
		for _, js := range stats.Jobs {
			r.filtered += js.MapRecordsFiltered
		}
		// What wireWriter.dataRow does per cell before the bytes reach
		// the socket buffer.
		t.layer("server.text_value", id, func() {
			n := 0
			for _, row := range rows {
				for _, v := range row {
					if !v.IsNull() {
						n += len(server.TextValue(v))
					}
				}
			}
			sink += n
		})
	})
	if err != nil {
		return digest{}, err
	}
	return digestRows(rows), nil
}

// replay walks one client-ordered op list and returns a record per query.
func (r *replica) replay(ops []op) []opRecord {
	records := make([]opRecord, 0, len(ops))
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opRegister:
			r.register(o.version)
		case opReconnect:
			if err := r.connect(i); err != nil {
				return records
			}
		case opQuery:
			start := time.Now()
			d, err := r.query(i, o.sql)
			records = append(records, opRecord{op: o, dur: time.Since(start), digest: d, failed: err != nil})
		}
	}
	return records
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ysmart/internal/datagen"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/queries"
	"ysmart/internal/server"
	"ysmart/internal/translator"
)

// tracePasses is how many times the traced run replays the op list each
// way, in process (traced) and over a socket, the two taking turns so that
// a drift of the host's speed reaches both alike. The fastest pass of each
// kind gives the timed figures.
const tracePasses = 3

// frontEnd are the layers counted as "front end + plan cache" by the
// plan_cold dominance prediction.
var frontEnd = []string{
	"translator.normalize", "sqlparser.parse", "plan.build",
	"correlation.analyze", "translator.translate", "optanalysis.apply",
}

// flatten joins the clients' lists into the order one connection replays
// them in.
func flatten(lists [][]op) []op {
	var out []op
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// runTrace is `bench run --trace 1` / `bench trace`: the in-process traced
// replay of round 1's op list, the same ops over a socket for the wire
// residual, coverage and the child's counters, and the stand-alone kernels.
func runTrace(s *spec, seed int64, opt runOptions) (*outcome, error) {
	p := buildPlan(s, seed, opt.seconds, 1)
	ops := flatten(p.rounds[1])
	ver, err := newVerifier(s, seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{res: results{}}
	derived := map[string]float64{} // shares the dominance predictions refer to
	n := float64(timedOps(p.rounds[1]))

	// In-process: a warm-up pass, then the traced passes - collecting as
	// often as the server child does (the load generator's relaxed GC setting
	// would make the replica faster than the program it copies). Host noise
	// only adds time, so the fastest pass is the one closest to the code's
	// own cost, and its spans give the layer times.
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	tr := &tracer{}
	rep, err := newReplica(s, seed, tr)
	if err != nil {
		return nil, err
	}
	all := rep.replay(flatten(p.rounds[0]))
	sock, err := startSocketSide(p, opt)
	if err != nil {
		return nil, err
	}
	defer sock.stop()
	var spans []span
	var coldOps int
	var filtered int64
	tracedSum := math.Inf(1)
	for i := 0; i < opt.passes; i++ {
		tr.spans, tr.on, tr.t0 = nil, true, time.Now()
		rep.coldOps, rep.filtered = 0, 0
		records := rep.replay(ops)
		tr.on = false
		all = append(all, records...)
		if d := sumDur(records); d < tracedSum {
			tracedSum, spans, coldOps, filtered = d, tr.spans, rep.coldOps, rep.filtered
		}
		if err := sock.pass(); err != nil {
			return nil, err
		}
	}
	// What tracing added to that pass: the spans it recorded times the cost
	// of recording one. Untraced passes taking turns with the traced ones
	// cannot resolve it: the best of three of each kind differed by -4 % to
	// +7 % from run to run, around a cost of 0.01-0.5 %.
	perSpan := spanCost()
	tracing := float64(len(spans)) * perSpan
	inProcSum := tracedSum - tracing
	out.extra = append(out.extra, fmt.Sprintf("tracing: %d spans x %.0f ns each in a pass of %.3f s", len(spans), perSpan*1e9, tracedSum))

	self := map[string]float64{} // layer -> summed span seconds
	opSum := 0.0
	for _, sp := range spans {
		d := float64(sp.EndNs-sp.StartNs) / 1e9
		if sp.Name == "op" {
			opSum += d
		} else {
			self[sp.Name] += d
		}
	}
	layerSum := 0.0
	for _, l := range spanLayers {
		out.res[l+".us_per_op"] = measured{self[l] * 1e6 / n, int(n)}
		if l != "server.connect" {
			layerSum += self[l]
		}
	}
	out.res["optanalysis.lines_filtered_per_op"] = measured{float64(filtered) / n, int(n)}
	out.res["trace.overhead_pct"] = measured{tracing / inProcSum * 100, len(spans)}
	fe := 0.0
	for _, l := range frontEnd {
		fe += self[l]
	}
	derived["share.mapreduce.run_chain"] = self["mapreduce.run_chain"] / opSum
	derived["share.frontend"] = fe / opSum
	derived["share.cold_ops"] = float64(coldOps) / n

	if err := sock.report(out.res, layerSum, inProcSum); err != nil {
		return nil, err
	}
	all = append(all, sock.records...)
	if err := kernels(s, seed, ops, out.res); err != nil {
		return nil, err
	}

	for _, pr := range s.predictions {
		v, ok := derived[pr.metric]
		if !ok {
			v = out.res[pr.metric].Value
		}
		line := fmt.Sprintf("prediction %-32s %10.4f in [%g, %g]", pr.metric, v, pr.lo, pr.hi)
		if v < pr.lo || v > pr.hi {
			line += "  BROKEN"
			out.broken = append(out.broken, line)
		}
		out.extra = append(out.extra, line)
	}
	if s.name == "engine_warm" {
		ratio, err := doseResponse(s, seed)
		if err != nil {
			return nil, err
		}
		line := fmt.Sprintf("prediction %-32s %10.4f in [1.6, inf)", "dose_response.p50_ratio", ratio)
		if ratio < 1.6 {
			line += "  BROKEN"
			out.broken = append(out.broken, line)
		}
		out.extra = append(out.extra, line)
	}

	out.attempted = len(all)
	var first string
	out.failed, first = ver.failures(all)
	if first != "" {
		out.extra = append(out.extra, "first failure: "+first)
	}
	file, err := writeSpans(s, seed, spans)
	if err != nil {
		return nil, err
	}
	out.extra = append(out.extra, fmt.Sprintf("trace: %d spans written to %s", len(spans), file))
	return out, nil
}

// spanCost is the seconds recording one span adds to the code it wraps: a
// calibration loop around an empty function, tracer on minus tracer off,
// fastest of three.
func spanCost() float64 {
	const n = 200000
	loop := func(on bool) time.Duration {
		t := &tracer{on: on, t0: time.Now()}
		start := time.Now()
		for i := 0; i < n; i++ {
			t.layer("calibration", i, func() {})
		}
		return time.Since(start)
	}
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		best = math.Min(best, (loop(true)-loop(false)).Seconds()/n)
	}
	return math.Max(best, 0)
}

func sumDur(records []opRecord) float64 {
	s := 0.0
	for _, r := range records {
		s += r.dur.Seconds()
	}
	return s
}

// socketSide is the traced run's child-process half: the same op list
// replayed over one pgwire connection against a fresh child, for the
// client-observed and child-counted per-layer metrics.
type socketSide struct {
	d         *driver
	list      [][]op
	before    childStats
	passes    []*roundResult
	clientCPU float64    // the load generator's own CPU seconds inside the passes
	records   []opRecord // every op issued, for verification
}

// startSocketSide brings the child up and answers a warm-up pass.
func startSocketSide(p *runPlan, opt runOptions) (*socketSide, error) {
	single := &runPlan{spec: p.spec, seed: p.seed, rounds: [][][]op{{flatten(p.rounds[0])}, {flatten(p.rounds[1])}}}
	d, _, err := setUp(single, opt.procs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(opt.log, "bench: child pid=%d addr=%s\n", d.child.pid, d.child.addr)
	k := &socketSide{d: d, list: single.rounds[1]}
	warm, err := d.runRound(single.rounds[0])
	if err == nil {
		k.records = warm.records
		k.before, err = d.child.stats(true, true)
	}
	if err != nil {
		k.stop()
		return nil, err
	}
	return k, nil
}

func (k *socketSide) stop() {
	k.d.close()
	k.d.child.stop()
}

// pass replays the op list once.
func (k *socketSide) pass() error {
	cpu := selfCPUSeconds()
	r, err := k.d.runRound(k.list)
	if err != nil {
		return err
	}
	k.clientCPU += selfCPUSeconds() - cpu
	k.passes = append(k.passes, r)
	k.records = append(k.records, r.records...)
	return nil
}

// report fills in the socket side's metrics. layerSum and inProcSum are the
// in-process pass's layer span total and op time, in seconds.
func (k *socketSide) report(res results, layerSum, inProcSum float64) error {
	d, before, passes, clientCPU := k.d, k.before, k.passes, k.clientCPU
	after, err := d.child.stats(false, true)
	if err != nil {
		return err
	}
	var qps []float64
	ops := 0
	for _, r := range passes {
		qps = append(qps, float64(len(r.records))/r.wall.Seconds())
		ops += len(r.records)
	}

	// The quietest pass is the one closest to the program's own cost.
	sort.Slice(passes, func(i, j int) bool { return sumDur(passes[i].records) < sumDur(passes[j].records) })
	quiet := passes[0]
	lat := sumDur(quiet.records)
	perPass := float64(len(quiet.records))
	n := float64(ops)
	res["server.wire_residual.us_per_op"] = measured{(lat - inProcSum) * 1e6 / perPass, int(perPass)}
	res["trace.coverage"] = measured{layerSum / lat, int(perPass)}
	res["harness.round_spread"] = measured{spread(qps), len(qps)}
	res["harness.client_cpu_ms_per_op"] = measured{clientCPU * 1e3 / n, ops}

	connects := quiet.connects
	for i := 0; i < 5; i++ {
		start := time.Now()
		c, err := d.dial()
		if err != nil {
			return err
		}
		connects = append(connects, time.Since(start))
		c.Close()
	}
	us := make([]float64, len(connects))
	for i, c := range connects {
		us[i] = float64(c) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	res["server.connect.us_p50"] = measured{percentile(us, 0.5), len(us)}
	waits := float64(after.AdmissionWaitCount - before.AdmissionWaitCount)
	res["server.admission.wait_us_mean"] = measured{(after.AdmissionWaitSum - before.AdmissionWaitSum) * 1e6 / math.Max(waits, 1), int(waits)}

	delta := func(name string) float64 { return after.Counters[name] - before.Counters[name] }
	perOp := func(metric, counter string) { res[metric] = measured{delta(counter) / n, ops} }
	perOp("mapreduce.jobs_per_op", "ysmart_engine_jobs_total")
	perOp("mapreduce.map_input_records_per_op", "ysmart_engine_map_input_records_total")
	perOp("mapreduce.map_output_records_per_op", "ysmart_engine_map_output_records_total")
	perOp("mapreduce.shuffle_bytes_per_op", "ysmart_engine_shuffle_bytes_total")
	perOp("mapreduce.reduce_groups_per_op", "ysmart_engine_reduce_groups_total")
	perOp("mapreduce.reduce_output_bytes_per_op", "ysmart_engine_reduce_output_bytes_total")
	perOp("mapreduce.sim_s_per_op", "ysmart_engine_sim_seconds_total")
	perOp("mapreduce.dfs.write_bytes_per_op", "ysmart_dfs_write_bytes_total")
	perOp("mapreduce.dfs.read_bytes_per_op", "ysmart_dfs_read_bytes_total")
	perOp("server.plancache.evictions_per_op", "ysmart_server_plancache_evictions_total")
	perOp("server.plancache.retranslations_per_op", "ysmart_server_plancache_retranslations_total")
	perOp("reuse.records_per_op", "ysmart_reuse_records_total")
	perOp("reuse.invalidations_per_op", "ysmart_reuse_invalidations_total")
	perOp("reuse.evictions_per_op", "ysmart_reuse_evictions_total")
	perOp("reuse.bytes_saved_per_op", "ysmart_reuse_bytes_saved_total")
	ratio := func(metric, hits, misses string) {
		h, m := delta(hits), delta(misses)
		v := 0.0
		if h+m > 0 {
			v = h / (h + m)
		}
		res[metric] = measured{v, int(h + m)}
	}
	ratio("server.plancache.hit_ratio", "ysmart_server_plancache_hits_total", "ysmart_server_plancache_misses_total")
	ratio("reuse.hit_ratio", "ysmart_reuse_hits_total", "ysmart_reuse_misses_total")
	res["reuse.store_mb"] = measured{after.Counters["ysmart_reuse_store_bytes"] / (1 << 20), 1}
	rows := 0
	for _, r := range quiet.records {
		rows += r.digest.rows
	}
	res["server.result_rows_per_op"] = measured{float64(rows) / perPass, int(perPass)}
	res["runtime.gc_cycles_per_op"] = measured{float64(after.NumGC-before.NumGC) / n, ops}
	res["runtime.gc_pause_ms_per_op"] = measured{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / n, ops}
	return nil
}

// timeIt runs f reps times and returns the fastest pass's nanoseconds and
// the allocations of one pass (single goroutine, so the count is exact).
func timeIt(reps int, f func()) (ns float64, mallocs float64) {
	var m0, m1 runtime.MemStats
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		f()
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if d < best {
			best = d
		}
	}
	return float64(best), float64(m1.Mallocs - m0.Mallocs)
}

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink int

// kernels measures single functions stand-alone over the workload's own
// tables: the row codec, the DFS, the generator and the real plan cache.
func kernels(s *spec, seed int64, ops []op, res results) error {
	tables, err := s.generate(seed, 0)
	if err != nil {
		return err
	}
	rows := tables["lineitem"]
	schema, _ := queries.Catalog().Table("lineitem")
	// Small tables are repeated so one pass is long enough to time.
	passes := 1 + 20000/len(rows)
	nrows := float64(passes * len(rows))

	var lines []string
	ns, allocs := timeIt(3, func() {
		for p := 0; p < passes; p++ {
			lines = datagen.Lines(rows)
		}
	})
	res["exec.encode_row.ns_per_row"] = measured{ns / nrows, int(nrows)}
	res["exec.encode_row.allocs_per_row"] = measured{allocs / nrows, int(nrows)}
	ns, allocs = timeIt(3, func() {
		for p := 0; p < passes; p++ {
			for _, l := range lines {
				r, err := exec.DecodeRow(l, schema)
				if err != nil {
					panic(err) // the codec's own output
				}
				sink += len(r)
			}
		}
	})
	res["exec.decode_row.ns_per_row"] = measured{ns / nrows, int(nrows)}
	res["exec.decode_row.allocs_per_row"] = measured{allocs / nrows, int(nrows)}

	// The DFS as a session's engine uses it: with the registry attached, so
	// a write is the copy plus the byte count and a read is the byte count.
	// One call takes microseconds, so a timed pass makes many.
	dfsCalls := 64 * passes
	dfs := mapreduce.NewDFS()
	dfs.Instrument(nil, obs.NewRegistry(), nil)
	nlines := float64(dfsCalls * len(lines))
	ns, _ = timeIt(5, func() {
		for c := 0; c < dfsCalls; c++ {
			dfs.Write("kernel/lineitem", lines)
		}
	})
	res["mapreduce.dfs.write.ns_per_line"] = measured{ns / nlines, int(nlines)}
	ns, _ = timeIt(5, func() {
		for c := 0; c < dfsCalls; c++ {
			got, err := dfs.Read("kernel/lineitem")
			if err != nil {
				panic(err) // written just above
			}
			sink += len(got)
		}
	})
	res["mapreduce.dfs.read.ns_per_line"] = measured{ns / nlines, int(nlines)}

	total := 0
	ns, _ = timeIt(3, func() {
		total = 0
		for p := 0; p < 1+passes/4; p++ {
			t, err := s.generate(seed, 0)
			if err != nil {
				panic(err) // generated once already
			}
			for _, r := range server.EncodeTables(t) {
				total += len(r)
			}
		}
	})
	res["datagen.lines.ns_per_row"] = measured{ns / float64(total), total}

	// The real plan cache: Get on distinct statements (misses), then Get
	// on the same statements again (hits, while they fit the cache).
	var stmts []string
	seen := map[string]bool{}
	for _, o := range ops {
		if o.kind == opQuery && !seen[o.sql] && len(stmts) < s.cacheSize/2 {
			seen[o.sql] = true
			stmts = append(stmts, o.sql)
		}
	}
	// One pass over the statements takes well under a millisecond when they
	// hit, so a hit pass repeats them; the fastest of three passes is kept,
	// as in timeIt. A miss pass needs a cache that has not seen them.
	const hitRepeats = 100
	get := func(cache *server.PlanCache, repeats int) (float64, error) {
		start := time.Now()
		for i := 0; i < repeats; i++ {
			for _, sql := range stmts {
				p, err := cache.Get(sql)
				if err != nil {
					return 0, err
				}
				p.Release()
			}
		}
		return float64(time.Since(start)) / float64(time.Microsecond) / float64(repeats*len(stmts)), nil
	}
	miss, hit := math.Inf(1), math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		cache := server.NewPlanCache(s.cacheSize, translator.YSmart, queries.Catalog(), obs.NewRegistry())
		cache.SetOptimize(s.manimal)
		us, err := get(cache, 1)
		if err != nil {
			return err
		}
		miss = math.Min(miss, us)
		if us, err = get(cache, hitRepeats); err != nil {
			return err
		}
		hit = math.Min(hit, us)
	}
	res["server.plancache.get_miss.us"] = measured{miss, len(stmts)}
	res["server.plancache.get_hit.us"] = measured{hit, hitRepeats * len(stmts)}
	return nil
}

// doseResponse checks that engine_warm's latency follows its data: the
// median in-process op time at double the scale over the median at the
// workload's scale. The two scales take turns for tracePasses passes each and
// the fastest median of each is compared, so that a drift of the host's
// speed between one measurement and the other does not pass for a dose.
func doseResponse(s *spec, seed int64) (float64, error) {
	type side struct {
		rep  *replica
		list []op
		best float64 // fastest pass's median op time, ms
	}
	var sides [2]*side
	for i, scale := range []int{s.scale, 2 * s.scale} {
		cp := *s
		cp.scale = scale
		rep, err := newReplica(&cp, seed, &tracer{})
		if err != nil {
			return 0, err
		}
		sides[i] = &side{rep, flatten(cp.round(&cp, roundArgs{seed, roundRand(seed, 0), 0, 3, 1})), math.Inf(1)}
		rep.replay(sides[i].list) // warm-up
	}
	for pass := 0; pass < tracePasses; pass++ {
		for _, sd := range sides {
			var ms []float64
			for _, r := range sd.rep.replay(sd.list) {
				if r.failed {
					return 0, fmt.Errorf("dose-response op failed: %.80s", r.op.sql)
				}
				ms = append(ms, r.dur.Seconds()*1e3)
			}
			sort.Float64s(ms)
			sd.best = math.Min(sd.best, percentile(ms, 0.5))
		}
	}
	return sides[1].best / sides[0].best, nil
}

// writeSpans writes the traced run's spans as JSON under .bench_build/.
func writeSpans(s *spec, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	file := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", s.name, seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{s.name, seed, spans})
	if err != nil {
		return "", err
	}
	return file, os.WriteFile(file, b, 0o644)
}

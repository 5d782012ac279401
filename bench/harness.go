package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ysmart/internal/datagen"
	"ysmart/internal/server"
)

// opRecord is what the timed loop keeps per op: enough to verify it
// against the oracle afterwards without holding its rows.
type opRecord struct {
	op     *op
	dur    time.Duration
	digest digest
	failed bool
}

// roundResult is one round's observations.
type roundResult struct {
	wall     time.Duration
	records  []opRecord      // every opQuery of the round, all clients
	connects []time.Duration // every opReconnect's dial time
	cpu      float64         // child user+sys seconds spent in the round
}

// driver runs op lists against one server child over real pgwire
// connections, one closed loop per client: the next statement is sent only
// after the previous reply was fully read.
type driver struct {
	child   *child
	clients []*server.Client
}

func (d *driver) dial() (*server.Client, error) {
	return server.Dial(d.child.addr, "bench", "ysmart", 30*time.Second)
}

func (d *driver) connect(n int) error {
	for len(d.clients) < n {
		c, err := d.dial()
		if err != nil {
			return fmt.Errorf("dial %s: %w", d.child.addr, err)
		}
		d.clients = append(d.clients, c)
	}
	return nil
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.Close()
	}
	d.clients = nil
}

// runList executes one client's op list and returns a record per query
// and the dial time of every reconnect. A failed query is recorded and the
// loop goes on; a transport failure ends the list (its remaining ops are
// recorded as failed).
func (d *driver) runList(ci int, ops []op) (records []opRecord, connects []time.Duration) {
	records = make([]opRecord, 0, len(ops))
	dead := false
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opRegister:
			if err := d.child.register(o.version); err != nil {
				dead = true
			}
		case opReconnect:
			d.clients[ci].Close()
			start := time.Now()
			c, err := d.dial()
			if err != nil {
				dead = true
				continue
			}
			d.clients[ci] = c
			connects = append(connects, time.Since(start))
		case opQuery:
			if dead {
				records = append(records, opRecord{op: o, failed: true})
				continue
			}
			start := time.Now()
			r, err := d.clients[ci].Query(o.sql)
			dur := time.Since(start)
			if err != nil {
				records = append(records, opRecord{op: o, dur: dur, failed: true})
				continue
			}
			records = append(records, opRecord{op: o, dur: dur, digest: digestWire(r.Rows)})
		}
	}
	return records, connects
}

// runRound runs every client's list concurrently and times the whole round.
func (d *driver) runRound(lists [][]op) (*roundResult, error) {
	before, err := d.child.stats(false, false)
	if err != nil {
		return nil, err
	}
	res := &roundResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ci, l := range lists {
		wg.Add(1)
		go func(ci int, l []op) {
			defer wg.Done()
			records, connects := d.runList(ci, l)
			mu.Lock()
			res.records = append(res.records, records...)
			res.connects = append(res.connects, connects...)
			mu.Unlock()
		}(ci, l)
	}
	wg.Wait()
	res.wall = time.Since(start)
	after, err := d.child.stats(false, false)
	if err != nil {
		return nil, err
	}
	res.cpu = after.CPUSeconds - before.CPUSeconds
	return res, nil
}

// verifier checks recorded ops against the oracle.
type verifier struct {
	oracle   *oracle
	expected expected
	sample   *rand.Rand // picks the verified 1-in-8 of plan_cold's variants
}

func newVerifier(s *spec, seed int64) (*verifier, error) {
	var versions []datagen.Tables
	for v := 0; v < s.versions; v++ {
		t, err := s.generate(seed, v)
		if err != nil {
			return nil, err
		}
		versions = append(versions, t)
	}
	o := newOracle(versions)
	exp, err := o.expectedFor(s)
	if err != nil {
		return nil, err
	}
	return &verifier{oracle: o, expected: exp, sample: rand.New(rand.NewSource(seed ^ 0x5eed))}, nil
}

// failures counts the records that errored or whose rows differ from the
// oracle's; the first mismatch is described for the log.
func (v *verifier) failures(records []opRecord) (failed int, first string) {
	note := func(format string, args ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for i := range records {
		r := &records[i]
		if r.failed {
			note("op failed: %.80s", r.op.sql)
			continue
		}
		var want digest
		if r.op.stmt >= 0 {
			want = v.expected[r.op.stmt][r.op.version]
		} else {
			if v.sample.Intn(8) != 0 {
				continue
			}
			var err error
			if want, err = v.oracle.digestOf(r.op.sql, 0); err != nil {
				note("%v: %.80s", err, r.op.sql)
				continue
			}
		}
		if r.digest != want {
			note("rows differ from the oracle (got %d rows, want %d): %.80s", r.digest.rows, want.rows, r.op.sql)
		}
	}
	return failed, first
}

// measuredRounds is the number of measured rounds of a run; the estimator
// keeps the best quarter of them (see bestQuarter).
const measuredRounds = 12

// runOptions fix how a run estimates its figures. The sub-commands always
// use defaultOptions: the estimator is part of a ledger name's meaning, so
// it is not a flag. Only the smoke tests shrink it.
type runOptions struct {
	seconds int // nominal measured-phase length; scales the per-round op counts
	rounds  int // measured rounds
	passes  int // traced run: passes of each kind, in process and over the socket
	log     io.Writer
	procs   *procs
}

func defaultOptions() runOptions {
	return runOptions{seconds: defaultSeconds, rounds: measuredRounds, passes: tracePasses}
}

// setUp spawns a child and brings it to the state measurement starts from:
// datasets generated and encoded, server listening, first sessions open and
// one pass of the set-up ops answered.
func setUp(p *runPlan, ps *procs) (*driver, time.Duration, error) {
	start := time.Now()
	c, err := ps.start(p.spec, p.seed)
	if err != nil {
		return nil, 0, err
	}
	d := &driver{child: c}
	if err := d.connect(len(p.rounds[0])); err != nil {
		c.stop()
		return nil, 0, err
	}
	records, _ := d.runList(0, p.setupOps())
	for _, r := range records {
		if r.failed {
			d.close()
			c.stop()
			return nil, 0, fmt.Errorf("set-up op failed: %.80s", r.op.sql)
		}
	}
	return d, time.Since(start), nil
}

// outcome is what a run reports: its metrics, how many ops it issued and
// how many of them failed, free-form lines printed after the metrics, and
// (traced runs only) the dominance predictions that did not hold.
type outcome struct {
	res       results
	attempted int
	failed    int
	extra     []string
	broken    []string
}

// runEndToEnd is `bench run --trace 0`: set-up, a warm-up round, a forced
// collection, the measured rounds, then verification of every op.
func runEndToEnd(s *spec, seed int64, opt runOptions) (*outcome, error) {
	p := buildPlan(s, seed, opt.seconds, opt.rounds)
	ver, err := newVerifier(s, seed)
	if err != nil {
		return nil, err
	}

	d, setupTook, err := setUp(p, opt.procs)
	if err != nil {
		return nil, err
	}
	defer d.child.stop()
	defer d.close()
	fmt.Fprintf(opt.log, "bench: child pid=%d addr=%s\n", d.child.pid, d.child.addr)

	warm, err := d.runRound(p.rounds[0])
	if err != nil {
		return nil, err
	}
	all := warm.records
	base, err := d.child.stats(true, false)
	if err != nil {
		return nil, err
	}

	var qps, p50, p90, cpu []float64
	ops, perRound := 0, 0
	for _, lists := range p.rounds[1:] {
		r, err := d.runRound(lists)
		if err != nil {
			return nil, err
		}
		lat := make([]float64, 0, len(r.records))
		for _, rec := range r.records {
			if !rec.failed {
				lat = append(lat, float64(rec.dur)/float64(time.Millisecond))
			}
		}
		if len(lat) == 0 {
			return nil, fmt.Errorf("a round completed no op")
		}
		sort.Float64s(lat)
		perRound = len(r.records)
		ops += perRound
		qps = append(qps, float64(len(lat))/r.wall.Seconds())
		p50 = append(p50, percentile(lat, 0.5))
		p90 = append(p90, percentile(lat, 0.9))
		cpu = append(cpu, r.cpu*1e3/float64(len(lat)))
		all = append(all, r.records...)
	}
	end, err := d.child.stats(true, false)
	if err != nil {
		return nil, err
	}

	// Per-op figures divide by the measured rounds' ops; the warm-up
	// round's ops are verified (and counted as attempted) all the same.
	failed, first := ver.failures(all)
	kept := len(qps) / 4
	if kept < 1 {
		kept = 1
	}
	n := float64(ops)
	res := results{
		"setup_s":              {setupTook.Seconds(), 1},
		"qps":                  {bestQuarter(qps, true), kept * perRound},
		"latency_p50_ms":       {bestQuarter(p50, false), kept * perRound},
		"latency_p90_ms":       {bestQuarter(p90, false), kept * perRound},
		"server_cpu_ms_per_op": {bestQuarter(cpu, false), kept * perRound},
		"alloc_mb_per_op":      {float64(end.TotalAlloc-base.TotalAlloc) / (1 << 20) / n, ops},
		"allocs_per_op":        {float64(end.Mallocs-base.Mallocs) / n, ops},
		"live_heap_mb":         {float64(end.HeapAlloc) / (1 << 20), 1},
	}
	extra := []string{
		fmt.Sprintf("%-44s %16.6f ratio  (IQR of per-round qps / median, %d rounds of %d ops)", "harness.round_spread", spread(qps), len(qps), perRound),
		fmt.Sprintf("%-44s %16.6f ops/s  (plain mean over rounds, for comparison)", "qps_mean", mean(qps)),
		fmt.Sprintf("per-round qps: %.1f", qps),
		fmt.Sprintf("per-round server_cpu_ms_per_op: %.2f", cpu),
	}
	if first != "" {
		extra = append(extra, "first failure: "+first)
	}
	return &outcome{res: res, attempted: len(all), failed: failed, extra: extra}, nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

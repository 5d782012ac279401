package translator

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"ysmart/internal/cmf"
	"ysmart/internal/correlation"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/plan"
)

// TablePath is the DFS path convention for base tables; experiment
// harnesses and examples load data there.
func TablePath(table string) string { return "tables/" + strings.ToLower(table) }

// outputRef records where a job wrote an operation's results.
type outputRef struct {
	path string
	tag  string
	eff  effView
}

// lowerer turns a job grouping into executable CMF jobs.
type lowerer struct {
	analysis *correlation.Analysis
	mode     Mode
	opts     Options
	prune    bool // project map output to required columns
	combine  bool // map-side partial aggregation for standalone AGG jobs
	share    bool // shared scans for tables read by several streams

	effOf     map[*correlation.Operation]effView
	written   map[*correlation.Operation]outputRef
	jobLookup map[*correlation.Operation]*jobBuild
	// facts accumulates per-scan early-filter facts while jobs lower;
	// they land on Translation.ScanFacts.
	facts []ScanFact
	// topLimit is the LIMIT stripped from above the root sort (0 if none);
	// it decides whether that sort can run range-partitioned.
	topLimit int
}

// requiredOf returns the pruned column demand of a node, or every column
// when pruning is off (the PigLike mode's fat intermediates).
func (lw *lowerer) requiredOf(n plan.Node) []int { return requiredCols(lw.analysis, lw.prune, n) }

// requiredCols is the column demand of n under analysis a: pruned, or every
// column.
func requiredCols(a *correlation.Analysis, prune bool, n plan.Node) []int {
	if !prune {
		all := make([]int, n.Schema().Len())
		for i := range all {
			all[i] = i
		}
		return all
	}
	return a.Required[n]
}

// view builds the effective view of a plan node.
func (lw *lowerer) view(n plan.Node) effView {
	return restrictView(n.Schema(), lw.requiredOf(n))
}

func (lw *lowerer) jobPath(idx int) string {
	return fmt.Sprintf("tmp/%s/%s/j%d", lw.opts.QueryName, lw.mode, idx)
}

// ---------------------------------------------------------------------------
// SP-only queries
// ---------------------------------------------------------------------------

// lowerSPQuery lowers an operation-free query to one map-only job.
func (lw *lowerer) lowerSPQuery() (*Translation, error) {
	in := lw.analysis.RootInput
	if in == nil || in.Scan == nil {
		return nil, fmt.Errorf("selection-projection query without a base table")
	}
	scan := in.Scan
	scanEff := lw.view(scan)
	stages, topEff, err := lowerChain(scanEff, in.Chain, lw.requiredOf)
	if err != nil {
		return nil, err
	}
	mapper := spMapper{cmf.NewDecoder("", scan.Schema(), scanEff.cols, stages)}
	path := lw.jobPath(1)
	name := fmt.Sprintf("%s-%s-j1[SP]", lw.opts.QueryName, lw.mode)
	job := &mapreduce.Job{
		Name:   name,
		Inputs: []mapreduce.Input{{Path: TablePath(scan.Table), Mapper: mapper}},
		Output: path,
	}
	fact := scanFact(name, 0, scan.Table, in.Chain, "no selection adjacent to the scan: every input line can reach the output")
	return &Translation{
		Mode:         lw.mode,
		Analysis:     lw.analysis,
		Jobs:         []*mapreduce.Job{job},
		CommonJobs:   []*cmf.CommonJob{nil},
		Groups:       [][]string{{"SP"}},
		Output:       path,
		OutputSchema: topEff.schema,
		ScanFacts:    []ScanFact{fact},
		fp:           lw.fingerprint(nil, nil),
	}, nil
}

// spMapper is the SP job's mapper class: the scan's line plan, each
// surviving row re-encoded as an output line. Its instances (spTask) keep
// the plan's scratch row from line to line, dropped lines included.
type spMapper struct{ dec *cmf.Decoder }

// NewMapTask implements mapreduce.Mapper.
func (m spMapper) NewMapTask() mapreduce.MapTask { return &spTask{dec: m.dec} }

// spTask is one instance of the SP mapper. It encodes the output line into
// its scratch buffer and emits a view of it under the empty key, which the
// worker's Output copies, so nothing outliving Map(line) aliases the
// scratch row or the buffer.
type spTask struct {
	dec  *cmf.Decoder
	row  exec.Row // the plan's scratch
	line []byte   // the encoded output line's scratch
}

// Map implements mapreduce.MapTask.
func (t *spTask) Map(line string, emit mapreduce.Emit) error {
	row, err := t.dec.Decode(&t.row, line)
	if err != nil || row == nil {
		return err
	}
	t.line = exec.AppendRow(t.line[:0], row)
	emit("", unsafe.String(unsafe.SliceData(t.line), len(t.line)))
	return nil
}

// ---------------------------------------------------------------------------
// Operation jobs
// ---------------------------------------------------------------------------

// lowerJobs lowers every job of the grouping in dependency order.
func (lw *lowerer) lowerJobs(g *grouping) (*Translation, error) {
	lw.jobLookup = g.jobOf
	order, err := topoJobs(g)
	if err != nil {
		return nil, err
	}

	// Strip the LIMIT from the top chain; it folds into the root SORT.
	topChain, topLimit := lw.splitTopLimit()
	lw.topLimit = topLimit

	tr := &Translation{Mode: lw.mode, Analysis: lw.analysis}
	pos := make(map[*jobBuild]int, len(order))
	jobOps := make([][]*correlation.Operation, 0, len(order))
	deps := make([][]int, 0, len(order))
	for idx, jb := range order {
		cj, err := lw.lowerJob(jb, idx+1, g, topChain, topLimit, tr)
		if err != nil {
			return nil, err
		}
		mr, err := cj.Build()
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", cj.Name, err)
		}
		var di []int
		for _, dep := range jobDeps(jb, g) {
			di = append(di, pos[dep])
		}
		pos[jb] = idx
		tr.Jobs = append(tr.Jobs, mr)
		tr.CommonJobs = append(tr.CommonJobs, cj)
		group := make([]string, len(jb.ops))
		for i, op := range jb.ops {
			group[i] = op.Name()
		}
		tr.Groups = append(tr.Groups, group)
		jobOps = append(jobOps, jb.ops)
		deps = append(deps, di)
	}
	tr.ScanFacts = lw.facts
	tr.fp = lw.fingerprint(jobOps, deps)
	return tr, nil
}

// splitTopLimit removes the LIMIT, if any, from the top chain. plan.Build
// puts a LIMIT only directly above the final ORDER BY, so when there is
// one it is the whole chain.
func (lw *lowerer) splitTopLimit() ([]plan.Node, int) {
	chain := lw.analysis.TopChain
	if len(chain) == 1 {
		if l, ok := chain[0].(*plan.Limit); ok {
			return nil, l.N
		}
	}
	return chain, 0
}

// jobDeps lists the jobs jb reads intermediate results from.
func jobDeps(jb *jobBuild, g *grouping) []*jobBuild {
	seen := make(map[*jobBuild]bool)
	var out []*jobBuild
	for _, op := range jb.ops {
		for _, in := range op.Inputs {
			if in.Op == nil {
				continue
			}
			dep := g.jobOf[in.Op]
			if dep != jb && !seen[dep] {
				seen[dep] = true
				out = append(out, dep)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].minID() < out[j].minID() })
	return out
}

// topoJobs orders jobs so dependencies come first, breaking ties by the
// smallest operation ID (the one-to-one submission order).
func topoJobs(g *grouping) ([]*jobBuild, error) {
	remaining := append([]*jobBuild(nil), g.jobs...)
	done := make(map[*jobBuild]bool)
	var out []*jobBuild
	for len(remaining) > 0 {
		picked := -1
		for i, jb := range remaining {
			ready := true
			for _, dep := range jobDeps(jb, g) {
				if !done[dep] {
					ready = false
					break
				}
			}
			if ready && (picked < 0 || jb.minID() < remaining[picked].minID()) {
				picked = i
			}
		}
		if picked < 0 {
			return nil, fmt.Errorf("job graph has a cycle")
		}
		jb := remaining[picked]
		remaining = append(remaining[:picked], remaining[picked+1:]...)
		done[jb] = true
		out = append(out, jb)
	}
	return out, nil
}

// slotKey identifies one operation input.
type slotKey struct {
	opID     int
	inputIdx int
}

// slot is a resolved operation input on the reduce side.
type slot struct {
	src cmf.Source
	eff effView
}

// sharedStream is one merged job's view of a shared table scan.
type sharedStream struct {
	key      slotKey
	op       *correlation.Operation
	scan     *plan.Scan
	chain    []plan.Node
	id       int
	keyBase  []int // key columns as base-table positions
	required []int // base columns this stream needs in the common value
}

// lowerJob builds the CMF description of one job.
func (lw *lowerer) lowerJob(jb *jobBuild, idx int, g *grouping, topChain []plan.Node, topLimit int, tr *Translation) (*cmf.CommonJob, error) {
	opNames := make([]string, len(jb.ops))
	for i, op := range jb.ops {
		opNames[i] = op.Name()
	}
	path := lw.jobPath(idx)
	cj := &cmf.CommonJob{
		Name:   fmt.Sprintf("%s-%s-j%d[%s]", lw.opts.QueryName, lw.mode, idx, strings.Join(opNames, "+")),
		Output: path,
	}
	addOp := func(op cmf.Op) { cj.Ops = append(cj.Ops, op) }

	inJob := make(map[*correlation.Operation]bool, len(jb.ops))
	for _, op := range jb.ops {
		inJob[op] = true
	}

	// ---- Phase 1: classify stream inputs, group shareable scans ---------
	nextStream := 0
	newStreamID := func() int {
		id := nextStream
		nextStream++
		return id
	}
	slots := make(map[slotKey]slot)
	sharedByTable := make(map[string][]*sharedStream)
	var simpleScans []*sharedStream // scans lowered as independent inputs
	scanCount := make(map[string]int)
	for _, op := range jb.ops {
		for _, in := range op.Inputs {
			if in.Scan != nil {
				scanCount[in.Scan.Table]++
			}
		}
	}

	for _, op := range jb.ops {
		for i, in := range op.Inputs {
			if in.Scan == nil {
				continue
			}
			sk := slotKey{op.ID, i}
			ss := &sharedStream{key: sk, op: op, scan: in.Scan, chain: in.Chain, id: newStreamID()}
			if lw.share && scanCount[in.Scan.Table] > 1 {
				if kb, ok := lw.traceKeyToBase(op, i); ok {
					ss.keyBase = kb
					// Columns consumed only by map-side selection stay out
					// of the common value: when the whole chain is filters,
					// the demand above the top filter — which excludes the
					// filter conditions — is what the reduce side needs.
					ss.required = lw.requiredOf(in.Scan)
					if k := mapFilterPrefixLen(in.Chain); k > 0 && k == len(in.Chain) {
						ss.required = lw.requiredOf(in.Chain[0])
					}
					sharedByTable[in.Scan.Table] = append(sharedByTable[in.Scan.Table], ss)
					continue
				}
			}
			simpleScans = append(simpleScans, ss)
		}
	}
	// Demote shared groups whose streams disagree on the key base columns.
	for table, streams := range sharedByTable {
		ok := len(streams) > 1
		for _, s := range streams[1:] {
			if !intsEqual(s.keyBase, streams[0].keyBase) {
				ok = false
			}
		}
		if !ok {
			simpleScans = append(simpleScans, streams...)
			delete(sharedByTable, table)
		}
	}

	// ---- Phase 2: build inputs ------------------------------------------
	// Shared table inputs (deterministic order).
	tables := make([]string, 0, len(sharedByTable))
	for t := range sharedByTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, table := range tables {
		if err := lw.buildSharedInput(cj, table, sharedByTable[table], slots, addOp); err != nil {
			return nil, err
		}
	}
	// Simple scan inputs.
	sort.Slice(simpleScans, func(i, j int) bool { return simpleScans[i].id < simpleScans[j].id })
	for _, ss := range simpleScans {
		lw.facts = append(lw.facts, scanFact(cj.Name, len(cj.Inputs), ss.scan.Table, ss.chain,
			fmt.Sprintf("%s: no selection adjacent to the scan of %s", ss.op.Name(), ss.scan.Table)))
		view := lw.view(ss.scan)
		if err := lw.buildStreamInput(cj, ss.op, ss.key.inputIdx, ss.id,
			TablePath(ss.scan.Table), "", ss.scan.Schema(), view.cols, view, ss.chain, slots); err != nil {
			return nil, err
		}
	}
	// Intermediate inputs (operation outputs from other jobs).
	for _, op := range jb.ops {
		for i, in := range op.Inputs {
			if in.Op == nil || inJob[in.Op] {
				continue
			}
			ref, ok := lw.written[in.Op]
			if !ok {
				return nil, fmt.Errorf("internal: %s consumed before %s was lowered", in.Op.Name(), op.Name())
			}
			if err := lw.buildStreamInput(cj, op, i, newStreamID(),
				ref.path, ref.tag, ref.eff.schema, nil, ref.eff, in.Chain, slots); err != nil {
				return nil, err
			}
		}
	}

	// ---- Phase 3: build operators in dependency order -------------------
	for _, op := range jb.ops {
		srcs := make([]cmf.Source, len(op.Inputs))
		effs := make([]effView, len(op.Inputs))
		for i, in := range op.Inputs {
			if in.Op != nil && inJob[in.Op] {
				stages, eff, err := lowerChain(lw.effOf[in.Op], in.Chain, lw.requiredOf)
				if err != nil {
					return nil, fmt.Errorf("%s input %d: %w", op.Name(), i, err)
				}
				srcs[i] = stagesToOps(stages, cmf.OpSource(in.Op.Name()),
					fmt.Sprintf("%s.in%d", op.Name(), i), addOp)
				effs[i] = eff
				continue
			}
			s, ok := slots[slotKey{op.ID, i}]
			if !ok {
				return nil, fmt.Errorf("internal: unresolved input %d of %s", i, op.Name())
			}
			srcs[i] = s.src
			effs[i] = s.eff
		}
		if err := lw.buildOp(cj, jb, op, srcs, effs, topLimit, addOp); err != nil {
			return nil, err
		}
	}

	// ---- Phase 4: outputs and the top chain ------------------------------
	var external []*correlation.Operation
	for _, op := range jb.ops {
		if op.Parent == nil || !inJob[op.Parent] {
			external = append(external, op)
		}
	}
	multi := len(external) > 1
	for _, op := range external {
		if op == lw.analysis.RootOp {
			stages, eff, err := lowerChain(lw.effOf[op], topChain, lw.requiredOf)
			if err != nil {
				return nil, fmt.Errorf("top chain: %w", err)
			}
			src := stagesToOps(stages, cmf.OpSource(op.Name()), "final", addOp)
			name := op.Name()
			if src.IsOp() {
				name = src.Op
			}
			tag := ""
			if multi {
				tag = "RESULT"
			}
			cj.Outputs = append(cj.Outputs, cmf.OutputSpec{Op: name, Tag: tag})
			tr.Output = path
			tr.OutputTag = tag
			tr.OutputSchema = eff.schema
			continue
		}
		tag := ""
		if multi {
			tag = op.Name()
		}
		cj.Outputs = append(cj.Outputs, cmf.OutputSpec{Op: op.Name(), Tag: tag})
		lw.written[op] = outputRef{path: path, tag: tag, eff: lw.effOf[op]}
	}
	return cj, nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

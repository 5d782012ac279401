package cmf

import (
	"fmt"
	"slices"
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
)

// Stream is one merged job's view of a common input: its map-side selection
// over the shared table scan.
type Stream struct {
	ID int
	// Filter is the stream's selection; nil accepts every row.
	Filter exec.Predicate
}

// CommonInput describes one map-side input of a common job.
type CommonInput struct {
	Path string
	// Decode parses one input line into a row (typically a schema-typed
	// decode for base tables, or a tag-stripping decode for intermediate
	// files written by earlier common jobs); a nil row with no error drops
	// the line. scratch is the calling map task's scratch row (empty at
	// first): a decoder may build its row anywhere in
	// (*scratch)[:cap(*scratch)] instead of allocating, and grows the
	// scratch by storing larger storage in *scratch — which the task keeps
	// whether or not the line passes, so a task whose first lines are all
	// filtered out allocates once, not per line. The returned row is only
	// valid until the task's next call.
	Decode func(scratch *exec.Row, line string) (exec.Row, error)
	// Key computes the partition-key values of a row, one function per key
	// column (none: every row shares the empty key). All streams of an
	// input share the key — that is precisely the transit-correlation
	// condition that allowed the merge.
	Key []exec.Evaluator
	// KeyEncode overrides the default injective key encoding. Distributed
	// sort jobs use exec.EncodeOrderedKey so key byte-order equals value
	// order. Keys are only partitioned and compared, never decoded.
	KeyEncode func([]exec.Value) string
	// Project lists the decoded-row positions that make up the common
	// value — the union of the columns any stream needs; nil keeps the
	// whole row.
	Project []int
	// Schema types the value row the mapper emits (the decoded row, or its
	// Project columns): the reducer and the combiner decode every shipped
	// field by it.
	Schema  *exec.Schema
	Streams []Stream
}

// OutputSpec names an operator whose per-key results the job writes.
type OutputSpec struct {
	Op string
	// Tag distinguishes this operator's rows in the shared output file when
	// the job writes results of several merged jobs (§VI.B). Single-output
	// jobs leave it empty.
	Tag string
}

// CommonJob is the translator-facing description of one merged MapReduce
// job: shared inputs, the per-key operator graph, and which operators'
// results are written.
type CommonJob struct {
	Name    string
	Inputs  []CommonInput
	Ops     []Op
	Outputs []OutputSpec
	// Output is the DFS path the job writes.
	Output         string
	NumReduceTasks int
	// CombineOp optionally names an AggOp with Partials to drive map-side
	// partial aggregation (Hive's hash-aggregate map phase). It requires a
	// single input with a single unfiltered-or-filtered stream and
	// decomposable aggregates.
	CombineOp string
}

// Build lowers the common job onto the MapReduce engine. The operator graph
// is compiled here, once per job, and slot-indexed per key group from then
// on; a cyclic graph is therefore a Build error.
func (cj *CommonJob) Build() (*mapreduce.Job, error) {
	if err := cj.validate(); err != nil {
		return nil, err
	}

	job := &mapreduce.Job{
		Name:           cj.Name,
		Output:         cj.Output,
		NumReduceTasks: cj.NumReduceTasks,
		// No input keys its rows: a global aggregation, which answers
		// even an empty input.
		GlobalReduce: !slices.ContainsFunc(cj.Inputs, func(in CommonInput) bool { return len(in.Key) > 0 }),
	}
	cr := &commonReducer{schemas: make([]*exec.Schema, len(cj.Inputs))}
	var streamIDs []int
	for ii, in := range cj.Inputs {
		job.Inputs = append(job.Inputs, mapreduce.Input{
			Path:   in.Path,
			Mapper: &commonMapper{input: ii, in: in},
		})
		refs := make([]streamRef, len(in.Streams))
		for i, st := range in.Streams {
			refs[i] = streamRef{id: st.ID, slot: len(streamIDs)}
			streamIDs = append(streamIDs, st.ID)
		}
		cr.inputs = append(cr.inputs, refs)
		cr.schemas[ii] = in.Schema
	}
	var err error
	if cr.graph, err = compileGraph(cj.Ops, streamIDs); err != nil {
		return nil, fmt.Errorf("common job %s: %w", cj.Name, err)
	}
	slotOf := make(map[string]int, len(cr.graph.ops))
	cr.opCounts = make([]mapreduce.OpDispatch, len(cr.graph.ops))
	for i, gop := range cr.graph.ops {
		slotOf[gop.op.Name()] = cr.graph.nStreams + i
		cr.opCounts[i].Op = gop.op.Name()
	}
	for _, out := range cj.Outputs {
		cr.outputs = append(cr.outputs, outputSlot{slot: slotOf[out.Op], tag: out.Tag})
	}
	job.Reducer = cr

	if cj.CombineOp != "" {
		comb, partials, err := cj.buildCombiner()
		if err != nil {
			return nil, err
		}
		job.Combiner = comb
		cr.schemas[0] = partials // what the combiner ships in place of the mapper's rows
	}
	return job, nil
}

func (cj *CommonJob) validate() error {
	if cj.Name == "" {
		return fmt.Errorf("common job has no name")
	}
	if len(cj.Inputs) == 0 {
		return fmt.Errorf("common job %s has no inputs", cj.Name)
	}
	seenStream := make(map[int]bool)
	for ii, in := range cj.Inputs {
		if in.Decode == nil {
			return fmt.Errorf("common job %s input %d needs Decode", cj.Name, ii)
		}
		if in.Schema == nil {
			return fmt.Errorf("common job %s input %d needs Schema", cj.Name, ii)
		}
		if len(in.Streams) == 0 {
			return fmt.Errorf("common job %s input %d has no streams", cj.Name, ii)
		}
		for _, st := range in.Streams {
			if seenStream[st.ID] {
				return fmt.Errorf("common job %s: duplicate stream id %d", cj.Name, st.ID)
			}
			seenStream[st.ID] = true
		}
	}
	opNames := make(map[string]bool, len(cj.Ops))
	for _, op := range cj.Ops {
		if op.Name() == "" {
			return fmt.Errorf("common job %s has an unnamed op", cj.Name)
		}
		if opNames[op.Name()] {
			return fmt.Errorf("common job %s: duplicate op %q", cj.Name, op.Name())
		}
		opNames[op.Name()] = true
	}
	for _, op := range cj.Ops {
		for _, src := range op.Sources() {
			if src.IsOp() {
				if !opNames[src.Op] {
					return fmt.Errorf("common job %s: op %q reads unknown op %q", cj.Name, op.Name(), src.Op)
				}
			} else if !seenStream[src.Stream] {
				return fmt.Errorf("common job %s: op %q reads unknown stream %d", cj.Name, op.Name(), src.Stream)
			}
		}
	}
	if len(cj.Outputs) == 0 {
		return fmt.Errorf("common job %s writes nothing", cj.Name)
	}
	tags := make(map[string]bool)
	for _, out := range cj.Outputs {
		if !opNames[out.Op] {
			return fmt.Errorf("common job %s outputs unknown op %q", cj.Name, out.Op)
		}
		if len(cj.Outputs) > 1 && out.Tag == "" {
			return fmt.Errorf("common job %s: multi-output jobs need distinct tags", cj.Name)
		}
		if out.Tag != "" && tags[out.Tag] {
			return fmt.Errorf("common job %s: duplicate output tag %q", cj.Name, out.Tag)
		}
		tags[out.Tag] = true
	}
	return nil
}

// commonMapper implements §VI.A: decode, evaluate every stream's selection,
// and emit one tagged common pair when at least one stream wants the row.
// Like the common reducer it comes as a class and its instances:
// commonMapper is one input's wiring, fixed at Build and never written
// again, and a mapTask (mapreduce.MapTaskFactory), one per map morsel, owns
// the scratch a line's work reuses.
type commonMapper struct {
	input int // the input's index within the job: the tag every pair carries
	in    CommonInput
}

// NewMapTask implements mapreduce.MapTaskFactory.
func (m *commonMapper) NewMapTask() mapreduce.Mapper { return &mapTask{m: m} }

// Map implements mapreduce.Mapper for callers outside the engine's map
// tasks: a one-line task.
func (m *commonMapper) Map(line string, emit mapreduce.Emit) error {
	t := m.NewMapTask()
	return t.Map(line, emit)
}

// mapTask is one map morsel's instance of the common mapper. It decodes
// every line into the same scratch row and keys through the same value
// slice. The lifetime rule, the reducer arena's restated for mappers:
// nothing that outlives Map(line) may alias the scratch. Key and tagged
// value are rendered into one call-local buffer, cut as one string from
// the task's pair chunks and emitted as its two halves — a pair costs no
// allocation of its own, a chunk one per up to 4 KB of pairs — and a
// decoded string value points into the input line, not into the scratch
// row. The chunks are append-only, so an emitted pair never changes; they
// die with the job's shuffle, since a common job always reduces and its
// pairs never reach the DFS.
type mapTask struct {
	m     *commonMapper
	row   exec.Row     // Decode's scratch
	vals  []exec.Value // key values for a KeyEncode input
	pairs cutter       // the emitted pairs
}

// Map implements mapreduce.Mapper.
func (t *mapTask) Map(line string, emit mapreduce.Emit) error {
	in := &t.m.in
	row, err := in.Decode(&t.row, line)
	if err != nil {
		return err
	}
	if row == nil {
		return nil // decoder filtered the line (e.g. foreign tag)
	}
	var exclBuf [8]int
	excluded := exclBuf[:0]
	for _, st := range in.Streams {
		if st.Filter == nil {
			continue
		}
		ok, err := st.Filter(row)
		if err != nil {
			return err
		}
		if !ok {
			excluded = append(excluded, st.ID)
		}
	}
	if len(excluded) == len(in.Streams) {
		return nil
	}
	var buf [512]byte
	pair := buf[:0]
	if in.KeyEncode != nil {
		if cap(t.vals) < len(in.Key) {
			t.vals = make([]exec.Value, len(in.Key))
		}
		vals := t.vals[:len(in.Key)]
		for i, fn := range in.Key {
			if vals[i], err = fn(row); err != nil {
				return err
			}
		}
		pair = append(pair, in.KeyEncode(vals)...)
	} else {
		for i, fn := range in.Key {
			v, err := fn(row)
			if err != nil {
				return err
			}
			if i > 0 {
				pair = append(pair, '\t')
			}
			pair = exec.AppendField(pair, v)
		}
	}
	keyLen := len(pair)
	pair = appendTagHeader(pair, t.m.input, excluded)
	if in.Project == nil {
		pair = exec.AppendRow(pair, row)
	}
	for i, c := range in.Project {
		if i > 0 {
			pair = append(pair, '\t')
		}
		pair = exec.AppendField(pair, row[c])
	}
	s := t.pairs.cut(pair)
	emit(s[:keyLen], s[keyLen:])
	return nil
}

// streamRef is one stream of an input: its ID (what exclusion tags name)
// and the graph slot its rows are bucketed into.
type streamRef struct{ id, slot int }

// outputSlot is one written operator: the slot holding its rows and the
// tag that marks them in a shared output file.
type outputSlot struct {
	slot int
	tag  string
}

// commonReducer implements Algorithm 1: bucket the key group's values into
// the streams allowed to see them, evaluate the operator graph, and write
// the designated outputs (tagged when the job has several). It counts the
// rows consumed by every operator so the cost model can charge the merged
// reducer's real computation (the paper's §VII.C observation that merged
// reduce phases "execute more lines of code").
//
// The reducer itself is the paper's reducer class: the compiled graph and
// the job's wiring, fixed at Build and never written again, so any number
// of engines may run one job at once. The evaluating half is a reduceTask,
// one per engine reduce task (mapreduce.ReduceTaskFactory), which returns
// what it counted to the engine that ran it.
type commonReducer struct {
	graph    *graph
	inputs   [][]streamRef  // streams of each job input
	schemas  []*exec.Schema // the value rows of each job input, as they reach the reducer
	outputs  []outputSlot
	opCounts []mapreduce.OpDispatch // graph.ops' names with zero counts: what an instance starts from
}

// reduceTask is one reduce task's instance of the common reducer — the
// paper's reducer object, whose scratch outlives a key: the slot table, the
// exclusion scratch and the arena are reused from key group to key group,
// and the row counts are the task's own until Done hands them over.
type reduceTask struct {
	cr             *commonReducer
	slots, scratch [][]exec.Row // the graph's slot table; see graph.newSlots
	excluded       []int
	arena          arena
	counts         mapreduce.ReduceCounts // Dispatch indexed like graph.ops
}

// NewReduceTask implements mapreduce.ReduceTaskFactory.
func (cr *commonReducer) NewReduceTask() mapreduce.ReduceTask {
	t := &reduceTask{cr: cr, counts: mapreduce.ReduceCounts{Dispatch: slices.Clone(cr.opCounts)}}
	t.slots, t.scratch = cr.graph.newSlots()
	return t
}

// Reduce implements mapreduce.Reducer for callers outside the engine's
// reduce tasks: a one-key task whose counts nobody reads.
func (cr *commonReducer) Reduce(key string, values []string, emit func(string)) error {
	t := cr.NewReduceTask()
	return t.Reduce(key, values, emit)
}

// Reduce implements mapreduce.ReduceTask. The key is never decoded: no
// operator reads it.
func (t *reduceTask) Reduce(_ string, values []string, emit func(string)) error {
	cr, g, a := t.cr, t.cr.graph, &t.arena
	a.reset()
	clear(t.slots)
	// Every value decodes into one carving, sized by a count of their
	// fields (a tagged value's header holds no tab).
	n := 0
	for _, v := range values {
		n += strings.Count(v, "\t") + 1
	}
	decoded := a.vals.take(n)[:0]
	for _, v := range values {
		tv, err := appendTagged(v, cr.schemas, t.excluded[:0], decoded)
		if err != nil {
			return err
		}
		decoded, t.excluded = decoded[:len(decoded)+len(tv.Row)], tv.Excluded
		for _, st := range cr.inputs[tv.Input] {
			if !tv.Sees(st.id) {
				continue
			}
			if t.slots[st.slot] == nil {
				t.slots[st.slot] = a.rows.take(len(values))[:0]
			}
			t.slots[st.slot] = append(t.slots[st.slot], tv.Row)
		}
	}
	if err := g.eval(a, t.slots, t.scratch); err != nil {
		return err
	}
	for i, gop := range g.ops {
		in := g.inRows(i, t.slots)
		t.counts.Dispatch[i].InRows += in
		t.counts.Dispatch[i].OutRows += int64(len(t.slots[g.nStreams+i]))
		if gop.relational {
			t.counts.Work += in
		}
	}
	var buf [256]byte
	for _, out := range cr.outputs {
		line := AppendTag(buf[:0], out.tag)
		for _, r := range t.slots[out.slot] {
			emit(string(exec.AppendRow(line, r)))
		}
	}
	return nil
}

// Done implements mapreduce.ReduceTask.
func (t *reduceTask) Done() mapreduce.ReduceCounts { return t.counts }

// buildCombiner wires map-side partial aggregation for a single-aggregation
// job (paper §I footnote 2 — the optimization that makes Hive competitive
// on plain aggregation queries). It returns the schema of the partial rows
// the combiner ships, which the reducer then reads in place of the input's.
func (cj *CommonJob) buildCombiner() (mapreduce.Combiner, *exec.Schema, error) {
	if len(cj.Inputs) != 1 || len(cj.Inputs[0].Streams) != 1 {
		return nil, nil, fmt.Errorf("common job %s: combiner requires a single input with one stream", cj.Name)
	}
	var agg *AggOp
	for _, op := range cj.Ops {
		if op.Name() == cj.CombineOp {
			a, ok := op.(*AggOp)
			if !ok {
				return nil, nil, fmt.Errorf("common job %s: combine op %q is not an aggregation", cj.Name, cj.CombineOp)
			}
			agg = a
		}
	}
	if agg == nil {
		return nil, nil, fmt.Errorf("common job %s: combine op %q not found", cj.Name, cj.CombineOp)
	}
	if agg.Partials == nil {
		return nil, nil, fmt.Errorf("common job %s: combine op %q must consume partials", cj.Name, cj.CombineOp)
	}
	kinds := make([]exec.AggKind, len(agg.Aggs))
	for i, a := range agg.Aggs {
		kinds[i] = a.Kind
	}
	if !Decomposable(kinds) {
		return nil, nil, fmt.Errorf("common job %s: aggregates are not decomposable", cj.Name)
	}
	inputIdx := 0
	schemas := []*exec.Schema{cj.Inputs[inputIdx].Schema}
	partialWidth := len(agg.GroupBy)
	for _, k := range kinds {
		partialWidth += k.PartialWidth()
	}
	return mapreduce.CombinerFunc(func(_ string, values []string) ([]string, error) {
		// Every value decodes into one slab, as in a reducer instance, with
		// room after them for the partial row; a tagged value's header holds
		// no tab. The key is not decoded (see appendPartialRow).
		n := partialWidth
		for _, v := range values {
			n += strings.Count(v, "\t") + 1
		}
		slab := make(exec.Row, 0, n)
		rows := make([]exec.Row, len(values))
		for i, v := range values {
			tv, err := appendTagged(v, schemas, nil, slab)
			if err != nil {
				return nil, err
			}
			slab, rows[i] = slab[:len(slab)+len(tv.Row)], tv.Row
		}
		partial, err := appendPartialRow(slab[len(slab):], agg, rows)
		if err != nil {
			return nil, err
		}
		return []string{EncodeTagged(inputIdx, nil, partial)}, nil
	}), agg.Partials, nil
}

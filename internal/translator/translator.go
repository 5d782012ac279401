package translator

import (
	"fmt"
	"sort"
	"strings"

	"ysmart/internal/cmf"
	"ysmart/internal/correlation"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
)

// Mode selects the translation strategy.
type Mode int

// Translation modes.
const (
	// OneToOne is the Hive baseline: one MapReduce job per operation
	// (post-order traversal), map-side hash aggregation enabled, map output
	// projected to the needed columns.
	OneToOne Mode = iota + 1
	// PigLike is the Pig baseline: one job per operation, no map-side
	// partial aggregation, and unprojected map output values — the larger
	// intermediates the paper observed (§VII.D).
	PigLike
	// ICTCOnly applies only merging Rule 1 (input + transit correlation):
	// the middle configuration of Fig. 9.
	ICTCOnly
	// YSmart applies all four merging rules (§V.B).
	YSmart
)

func (m Mode) String() string {
	switch m {
	case OneToOne:
		return "one-to-one"
	case PigLike:
		return "pig-like"
	case ICTCOnly:
		return "ic-tc-only"
	case YSmart:
		return "ysmart"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options tunes a translation.
type Options struct {
	// QueryName labels jobs and DFS paths; defaults to "query".
	QueryName string
	// DisableSharedScan turns off the shared-table-scan optimization even
	// in YSmart modes (the self-join single-scan ablation).
	DisableSharedScan bool
	// DisableCombiner turns off map-side partial aggregation in modes that
	// normally use it.
	DisableCombiner bool
	// Tracer receives rule-application events (which merging rule fired on
	// which operations, and which merges were blocked) stamped at time 0,
	// before execution starts. Nil means no tracing.
	Tracer *obs.Collector
	// Metrics, when non-nil, counts rule firings
	// (ysmart_translator_rule_firings_total{rule=...}).
	Metrics *obs.Registry
	// Logger, when non-nil, receives one structured JSON event per
	// plan-merge decision (rules fired and merges blocked), so translation
	// choices are greppable alongside the engine's job lifecycle stream.
	Logger *obs.Logger
}

// Translation is a query compiled to an executable MapReduce job chain.
type Translation struct {
	Mode     Mode
	Analysis *correlation.Analysis
	// Jobs are the executable jobs in dependency order.
	Jobs []*mapreduce.Job
	// CommonJobs holds the CMF description of each job (nil entry for the
	// map-only SP job of an operation-free query).
	CommonJobs []*cmf.CommonJob
	// Groups lists the operation names merged into each job.
	Groups [][]string
	// Output is the DFS path of the final result; OutputTag is its source
	// tag within that file ("" when the file is single-output).
	Output    string
	OutputTag string
	// OutputSchema types the final result rows.
	OutputSchema *exec.Schema
	// ScanFacts records, per base-table input, the map-side selection the
	// MANIMAL rewrite stage may discharge as an early prefilter — or why
	// it refused (see ScanFact).
	ScanFacts []ScanFact
	// Optimized marks a translation carrying the MANIMAL scan rewrites.
	// Reuse keys fold it in (ArtifactKey) so optimized and plain
	// artifacts never mix, mirroring the plan cache's CacheKeyOpt.
	Optimized bool

	// fp is what Artifacts hashes, and its result once a reuse lookup asked.
	fp *fingerprint
}

// NumJobs returns the number of generated jobs.
func (t *Translation) NumJobs() int { return len(t.Jobs) }

// Describe renders the job plan for explain output.
func (t *Translation) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mode %s: %d job(s)\n", t.Mode, len(t.Jobs))
	for i, g := range t.Groups {
		fmt.Fprintf(&sb, "  job %d: %s -> %s\n", i+1, strings.Join(g, " + "), t.Jobs[i].Output)
	}
	return sb.String()
}

// ReadResult decodes the query result rows from the DFS.
func (t *Translation) ReadResult(dfs *mapreduce.DFS) ([]exec.Row, error) {
	return readResult(dfs, t.Output, t.OutputTag, t.OutputSchema)
}

// Analyze is the front half every surface shares: parse the statement, build
// its logical plan against the catalog, and run the correlation analysis.
// The plan root is the analysis' Root.
func Analyze(sql string, cat plan.Catalog) (*correlation.Analysis, error) {
	toks, err := sqlparser.Tokenize(sql)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return AnalyzeTokens(toks, cat)
}

// AnalyzeTokens is Analyze over a statement already lexed by
// sqlparser.Tokenize (the plan cache keys on the tokens, then parses them).
func AnalyzeTokens(toks []sqlparser.Token, cat plan.Catalog) (*correlation.Analysis, error) {
	stmt, err := sqlparser.NewParser(toks).ParseStatement()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	root, err := plan.Build(stmt, cat)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	a, err := correlation.Analyze(root)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	return a, nil
}

// Translate compiles a logical plan into MapReduce jobs under the given
// mode.
func Translate(root plan.Node, mode Mode, opts Options) (*Translation, error) {
	a, err := correlation.Analyze(root)
	if err != nil {
		return nil, err
	}
	return TranslateAnalyzed(a, mode, opts)
}

// TranslateAnalyzed compiles an already analyzed plan, which it only
// reads: callers that analyzed once (the plan cache, the ysmart facade's
// Query) translate it in any mode without analyzing again, and ablation
// studies adjust the analysis (e.g. override a partition-key choice)
// before job generation.
func TranslateAnalyzed(a *correlation.Analysis, mode Mode, opts Options) (*Translation, error) {
	switch mode {
	case OneToOne, PigLike, ICTCOnly, YSmart:
	default:
		return nil, fmt.Errorf("unknown translation mode %v", mode)
	}
	if opts.QueryName == "" {
		opts.QueryName = "query"
	}

	lw := &lowerer{
		analysis: a,
		mode:     mode,
		opts:     opts,
		prune:    mode != PigLike,
		combine:  mode != PigLike && !opts.DisableCombiner,
		share:    (mode == ICTCOnly || mode == YSmart) && !opts.DisableSharedScan,
		effOf:    make(map[*correlation.Operation]effView),
		written:  make(map[*correlation.Operation]outputRef),
	}

	if a.RootOp == nil {
		return lw.lowerSPQuery()
	}

	jobs := buildJobs(a, mode, opts.Tracer, opts.Metrics, opts.Logger)
	return lw.lowerJobs(jobs)
}

// ---------------------------------------------------------------------------
// Job grouping (merging rules)
// ---------------------------------------------------------------------------

// jobBuild is one planned job: a set of operations sharing a partition key.
type jobBuild struct {
	ops []*correlation.Operation
	pk  plan.PartKey
}

func (j *jobBuild) minID() int {
	m := j.ops[0].ID
	for _, op := range j.ops[1:] {
		if op.ID < m {
			m = op.ID
		}
	}
	return m
}

func (j *jobBuild) sortOps() {
	sort.Slice(j.ops, func(a, b int) bool { return j.ops[a].ID < j.ops[b].ID })
}

// grouping tracks the op->job assignment during merging.
type grouping struct {
	a     *correlation.Analysis
	jobs  []*jobBuild
	jobOf map[*correlation.Operation]*jobBuild

	tracer  *obs.Collector
	metrics *obs.Registry
	logger  *obs.Logger
}

// fireRule records one merging-rule application (or block) on the tracer,
// registry and event log. Rule events carry correlation provenance: which
// rule fired, the operations it merged, and the shared partition key.
func (g *grouping) fireRule(rule string, args ...obs.Field) {
	if g.tracer.Enabled() {
		g.tracer.Emit(obs.InstantEvent("translator", rule, "translator", 0, args...))
	}
	g.metrics.Add("ysmart_translator_rule_firings_total", 1, "rule", rule)
	if g.logger.Enabled(obs.LevelInfo) {
		g.logger.Info("plan.merge", append([]obs.Field{obs.F("decision", rule)}, args...)...)
	}
}

// opNames renders a job's operation list for rule-event args.
func opNames(jb *jobBuild) string {
	names := make([]string, len(jb.ops))
	for i, op := range jb.ops {
		names[i] = op.Name()
	}
	return strings.Join(names, "+")
}

// buildJobs produces the job grouping for a mode: per-op jobs, then Rule 1
// (step one) for ICTCOnly and YSmart, then Rules 2-4 (step two) for YSmart.
func buildJobs(a *correlation.Analysis, mode Mode, tracer *obs.Collector, metrics *obs.Registry, logger *obs.Logger) *grouping {
	g := &grouping{a: a, jobOf: make(map[*correlation.Operation]*jobBuild), tracer: tracer, metrics: metrics, logger: logger}
	for _, op := range a.Ops {
		jb := &jobBuild{ops: []*correlation.Operation{op}, pk: a.PK(op)}
		g.jobs = append(g.jobs, jb)
		g.jobOf[op] = jb
	}
	if mode == ICTCOnly || mode == YSmart {
		g.stepOne()
	}
	if mode == YSmart {
		g.stepTwo()
	}
	sort.Slice(g.jobs, func(i, j int) bool { return g.jobs[i].minID() < g.jobs[j].minID() })
	return g
}

// stepOne repeatedly merges job pairs with input correlation and transit
// correlation (Rule 1) until a fixpoint.
func (g *grouping) stepOne() {
	for changed := true; changed; {
		changed = false
	scan:
		for i := 0; i < len(g.jobs); i++ {
			for j := i + 1; j < len(g.jobs); j++ {
				if g.mergeableICTC(g.jobs[i], g.jobs[j]) {
					g.fireRule("rule1[IC+TC]",
						obs.F("into", opNames(g.jobs[i])),
						obs.F("merged", opNames(g.jobs[j])),
						obs.F("partition_key", g.jobs[i].pk.String()))
					g.merge(g.jobs[i], g.jobs[j])
					changed = true
					break scan
				}
			}
		}
	}
}

// mergeableICTC reports whether Rule 1 applies: equal partition keys, a
// shared input table, and no dependency between the jobs' operations.
func (g *grouping) mergeableICTC(x, y *jobBuild) bool {
	if x.pk == nil || y.pk == nil || !x.pk.Equal(y.pk) {
		return false
	}
	if !g.shareTable(x, y) {
		return false
	}
	return !g.depends(x, y) && !g.depends(y, x)
}

func (g *grouping) shareTable(x, y *jobBuild) bool {
	tx := make(map[string]bool)
	for _, op := range x.ops {
		for t := range g.a.InputTables(op) {
			tx[t] = true
		}
	}
	for _, op := range y.ops {
		for t := range g.a.InputTables(op) {
			if tx[t] {
				return true
			}
		}
	}
	return false
}

// depends reports whether any operation of x is a plan ancestor of any
// operation of y (x consumes y's results, directly or transitively).
func (g *grouping) depends(x, y *jobBuild) bool {
	for _, ox := range x.ops {
		for _, oy := range y.ops {
			for p := oy.Parent; p != nil; p = p.Parent {
				if p == ox {
					return true
				}
			}
		}
	}
	return false
}

// merge folds src into dst and drops src.
func (g *grouping) merge(dst, src *jobBuild) {
	dst.ops = append(dst.ops, src.ops...)
	dst.sortOps()
	for _, op := range src.ops {
		g.jobOf[op] = dst
	}
	for i, jb := range g.jobs {
		if jb == src {
			g.jobs = append(g.jobs[:i], g.jobs[i+1:]...)
			break
		}
	}
}

// stepTwo applies Rules 2-4: operations with job-flow correlation to a
// child move into the child's job as post-job computations. Operations are
// visited children-first, so merges cascade up the tree (the Fig. 7 walk).
func (g *grouping) stepTwo() {
	for _, op := range g.a.Ops {
		var target *jobBuild
		var rule string
		switch op.Kind {
		case correlation.KindAgg:
			// Rule 2: an aggregation merges into its only preceding job.
			if c := op.Inputs[0].Op; c != nil && g.a.JobFlowCorrelated(op, c) {
				target = g.jobOf[c]
				rule = "rule2[JFC]"
			}
		case correlation.KindJoin:
			c0, c1 := op.Inputs[0].Op, op.Inputs[1].Op
			jfc0 := c0 != nil && g.a.JobFlowCorrelated(op, c0)
			jfc1 := c1 != nil && g.a.JobFlowCorrelated(op, c1)
			switch {
			case jfc0 && jfc1 && g.jobOf[c0] == g.jobOf[c1]:
				// Rule 3: both children already share a common job.
				target = g.jobOf[c0]
				rule = "rule3[JFC]"
			case jfc0 && jfc1:
				// Both correlated but in different jobs: merge into the
				// later one; the other feeds the merged job its output
				// (Rule 4 generalized).
				target = g.jobOf[c1]
				if g.jobOf[c0].minID() > target.minID() {
					target = g.jobOf[c0]
				}
				rule = "rule4[JFC]"
			case jfc0:
				target = g.jobOf[c0] // Rule 4
				rule = "rule4[JFC]"
			case jfc1:
				target = g.jobOf[c1] // Rule 4
				rule = "rule4[JFC]"
			}
		}
		if target == nil || target == g.jobOf[op] {
			continue
		}
		if g.chainBlocksMerge(op) {
			g.fireRule("merge-blocked",
				obs.F("rule", rule), obs.F("op", op.Name()),
				obs.F("reason", "chain contains LIMIT"))
			continue
		}
		src := g.jobOf[op]
		if !g.mergeSafe(src, target) {
			g.fireRule("merge-blocked",
				obs.F("rule", rule), obs.F("op", op.Name()),
				obs.F("reason", "merge would create a job-graph cycle"))
			continue
		}
		g.fireRule(rule,
			obs.F("op", op.Name()),
			obs.F("into", opNames(target)))
		g.merge(target, src)
	}
}

// chainBlocksMerge rejects merges when the chain between op and a same-job
// child contains nodes the reduce-side dataflow cannot express (LIMIT).
func (g *grouping) chainBlocksMerge(op *correlation.Operation) bool {
	for _, in := range op.Inputs {
		for _, n := range in.Chain {
			if _, isLimit := n.(*plan.Limit); isLimit {
				return true
			}
		}
	}
	return false
}

// mergeSafe reports whether merging src into dst keeps the job graph
// acyclic: no third job may sit on a dependency path between them.
func (g *grouping) mergeSafe(src, dst *jobBuild) bool {
	for _, z := range g.jobs {
		if z == src || z == dst {
			continue
		}
		if g.depends(src, z) && g.depends(z, dst) {
			return false
		}
		if g.depends(dst, z) && g.depends(z, src) {
			return false
		}
	}
	return true
}

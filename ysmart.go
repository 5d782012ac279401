// Package ysmart is a from-scratch reproduction of "YSmart: Yet Another
// SQL-to-MapReduce Translator" (Lee, Luo, Huai, Wang, He, Zhang — ICDCS
// 2011): a correlation-aware translator that compiles SQL queries into the
// minimal number of MapReduce jobs by detecting input, transit and job-flow
// correlations between the query's operations, plus everything it needs to
// run — a SQL parser and planner, a Common MapReduce Framework, a
// deterministic simulated Hadoop engine with a calibrated cost model, a
// pipelined DBMS baseline, workload generators, and harnesses regenerating
// every figure of the paper's evaluation.
//
// The quickest path through the API:
//
//	cat := ysmart.Catalog{"clicks": ysmart.NewSchema(...)}
//	q, _ := ysmart.Parse("SELECT cid, count(*) FROM clicks GROUP BY cid", cat)
//	tr, _ := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: "demo"})
//	rt, _ := ysmart.NewRuntime(ysmart.SmallCluster())
//	rt.LoadTable("clicks", rows)
//	res, _ := rt.Run(tr)
//
// See examples/ for runnable programs and internal/experiments for the
// paper's evaluation.
package ysmart

import (
	"context"
	"fmt"
	"io"
	"os"

	"ysmart/internal/correlation"
	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/plan"
	"ysmart/internal/queries"
	"ysmart/internal/reuse"
	"ysmart/internal/translator"
)

// Re-exported data-model types.
type (
	// Value is a dynamically typed SQL value.
	Value = exec.Value
	// Row is a tuple of values.
	Row = exec.Row
	// Column describes one schema attribute.
	Column = exec.Column
	// Schema is an ordered list of columns.
	Schema = exec.Schema
	// Catalog maps table names to schemas.
	Catalog = plan.MapCatalog
	// Cluster configures the simulated cluster (nodes, slots, cost model,
	// compression, contention, data scale).
	Cluster = mapreduce.Cluster
	// Mode selects a translation strategy.
	Mode = translator.Mode
	// Options tunes a translation.
	Options = translator.Options
	// Translation is a compiled, executable MapReduce job chain.
	Translation = translator.Translation
	// ChainStats reports per-job counters and simulated times.
	ChainStats = mapreduce.ChainStats
	// FaultPlan is a deterministic, seeded fault-injection scenario
	// (task failures, node deaths, stragglers) attached to Cluster.Faults.
	FaultPlan = mapreduce.FaultPlan
	// NodeFailure kills one node at an absolute simulated time.
	NodeFailure = mapreduce.NodeFailure
	// Speculation configures backup attempts for straggling tasks.
	Speculation = mapreduce.Speculation
	// TaskAttempt is one scheduled execution attempt in a fault-injected
	// run (JobStats.Attempts).
	TaskAttempt = mapreduce.TaskAttempt
	// TraceEvent is one emitted span or instant.
	TraceEvent = obs.Event
	// Collector is the in-memory tracer recording events in emission order.
	// A nil *Collector is tracing off.
	Collector = obs.Collector
	// Registry accumulates named counters, gauges and latency/byte/row
	// histograms (Observe; read back with Snapshot or WriteMetrics).
	// A nil *Registry is metrics off.
	Registry = obs.Registry
	// Logger is the leveled structured JSON event logger (one event per
	// line, deterministic field order).
	Logger = obs.Logger
	// LogLevel orders log events by severity.
	LogLevel = obs.Level
	// ReuseStore is the cross-query materialized-output store (ReStore
	// style): job outputs recorded under canonical sub-plan fingerprints,
	// validated by per-table epochs, bounded by a cost-model eviction
	// policy.
	ReuseStore = reuse.Store
	// ReusePlan is a translation rewritten against a ReuseStore: the jobs
	// that still need to run, plus hit/skip/bytes-saved accounting.
	ReusePlan = translator.ReusePlan
)

// Log levels for NewLogger.
const (
	LogDebug = obs.LevelDebug
	LogInfo  = obs.LevelInfo
	LogWarn  = obs.LevelWarn
	LogError = obs.LevelError
)

// Value type constants and constructors.
const (
	TypeNull   = exec.TypeNull
	TypeInt    = exec.TypeInt
	TypeFloat  = exec.TypeFloat
	TypeString = exec.TypeString
	TypeBool   = exec.TypeBool
)

// Translation modes (see the paper's §III and §V).
const (
	// OneToOne is the Hive-style one-operation-to-one-job baseline.
	OneToOne = translator.OneToOne
	// PigLike is the Pig-style baseline (no combiner, fat intermediates).
	PigLike = translator.PigLike
	// ICTCOnly applies only merging Rule 1 (input+transit correlation).
	ICTCOnly = translator.ICTCOnly
	// YSmart applies all four merging rules.
	YSmart = translator.YSmart
)

// Value constructors.
var (
	Null  = exec.Null
	Int   = exec.Int
	Float = exec.Float
	Str   = exec.Str
	Bool  = exec.Bool
)

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return exec.NewSchema(cols...) }

// Cluster presets modelled on the paper's test environments (§VII.B).
var (
	// SmallCluster is the two-node lab cluster (one TaskTracker, 4 slots).
	SmallCluster = mapreduce.SmallCluster
	// EC2Cluster models an Amazon EC2 cluster with the given worker count.
	EC2Cluster = mapreduce.EC2Cluster
	// FacebookCluster models the 747-node shared production cluster; the
	// seed drives its deterministic contention.
	FacebookCluster = mapreduce.FacebookCluster
)

// WorkloadCatalog returns the paper's table catalog (TPC-H subset plus the
// click-stream table), and WorkloadQueries the named workload queries
// (Q17, Q18, Q21, Q-CSA, Q-AGG).
func WorkloadCatalog() Catalog           { return queries.Catalog() }
func WorkloadQueries() map[string]string { return queries.Named() }

// WorkloadTables generates the data the workload queries run over: the
// default TPC-H subset and click stream, keyed by table name.
func WorkloadTables() (map[string][]Row, error) {
	tables, err := GenerateTPCH(DefaultTPCH())
	if err != nil {
		return nil, err
	}
	clicks, err := GenerateClicks(DefaultClicks())
	if err != nil {
		return nil, err
	}
	for name, rows := range clicks {
		tables[name] = rows
	}
	return tables, nil
}

// TablePath is the DFS path a base table is loaded at.
func TablePath(table string) string { return translator.TablePath(table) }

// ParseFaultSpec parses the compact fault DSL of the -faults CLI flag
// (e.g. "task=0.1,straggler=0.05x6,node=2@500") into a FaultPlan.
func ParseFaultSpec(spec string) (*FaultPlan, error) { return mapreduce.ParseFaultSpec(spec) }

// ParseMode maps a -mode CLI name ("ysmart", "one-to-one"/"hive",
// "pig-like"/"pig", "ic-tc-only"/"ictc") to its translation Mode.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "ysmart":
		return YSmart, nil
	case "one-to-one", "hive":
		return OneToOne, nil
	case "pig-like", "pig":
		return PigLike, nil
	case "ic-tc-only", "ictc":
		return ICTCOnly, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}

// ParseCluster maps a -cluster CLI name ("small", "ec2-11", "ec2-101",
// "facebook") to a fresh instance of that cluster preset.
func ParseCluster(name string) (*Cluster, error) {
	switch name {
	case "small":
		return SmallCluster(), nil
	case "ec2-11":
		return EC2Cluster(10), nil
	case "ec2-101":
		return EC2Cluster(100), nil
	case "facebook":
		return FacebookCluster(1), nil
	default:
		return nil, fmt.Errorf("unknown cluster %q", name)
	}
}

// ---------------------------------------------------------------------------
// Query: parse + plan + analyze
// ---------------------------------------------------------------------------

// Query is a parsed and planned SQL query.
type Query struct {
	SQL      string
	root     plan.Node
	analysis *correlation.Analysis
}

// Parse parses sql and builds its logical plan against the catalog.
func Parse(sql string, cat Catalog) (*Query, error) {
	a, err := translator.Analyze(sql, cat)
	if err != nil {
		return nil, err
	}
	return &Query{SQL: sql, root: a.Root(), analysis: a}, nil
}

// Plan returns the logical plan root (for advanced callers).
func (q *Query) Plan() plan.Node { return q.root }

// OutputSchema is the schema of the query result.
func (q *Query) OutputSchema() *Schema { return q.root.Schema() }

// ExplainPlan renders the logical plan tree.
func (q *Query) ExplainPlan() string { return plan.Format(q.root) }

// ExplainCorrelations renders the detected operations, partition keys and
// correlations (the paper's §IV analysis).
func (q *Query) ExplainCorrelations() string { return q.analysis.Report() }

// Translate compiles the query into MapReduce jobs under a mode.
func (q *Query) Translate(mode Mode, opts Options) (*Translation, error) {
	return translator.TranslateAnalyzed(q.analysis, mode, opts)
}

// ApplyManimal installs the MANIMAL-style scan rewrites on a translation
// (the -manimal CLI flag): every base-table input with a selection
// adjacent to its scan reports the lines that selection drops as
// filtered early, and the rest are refused with recorded reasons. It returns how many filters were
// installed plus a human-readable report of every decision. Results stay
// byte-identical; only scanned-versus-mapped work changes.
func ApplyManimal(tr *Translation) (applied int, report string) {
	a, r := translator.ApplyScanFacts(tr)
	return len(a), translator.FormatScanFacts(a, r)
}

// ---------------------------------------------------------------------------
// Runtime: DFS + engine
// ---------------------------------------------------------------------------

// Runtime couples a simulated DFS with an engine on a cluster model.
type Runtime struct {
	dfs    *mapreduce.DFS
	engine *mapreduce.Engine
}

// NewRuntime builds a runtime over a fresh DFS.
func NewRuntime(cluster *Cluster) (*Runtime, error) {
	dfs := mapreduce.NewDFS()
	eng, err := mapreduce.NewEngine(dfs, cluster)
	if err != nil {
		return nil, err
	}
	return &Runtime{dfs: dfs, engine: eng}, nil
}

// DFS exposes the runtime's file system.
func (r *Runtime) DFS() *mapreduce.DFS { return r.dfs }

// SetWorkers sets how many goroutines the engine uses to execute map
// tasks, combiners and reduce key groups (the -workers CLI flag). The
// default is runtime.NumCPU(); n <= 1 runs fully sequentially. Results,
// stats and traces are byte-identical at any worker count — only host
// wall-clock time changes.
func (r *Runtime) SetWorkers(n int) { r.engine.SetWorkers(n) }

// Workers returns the engine's worker count.
func (r *Runtime) Workers() int { return r.engine.Workers() }

// LoadTable stores rows as a base table.
func (r *Runtime) LoadTable(name string, rows []Row) {
	r.dfs.Write(TablePath(name), datagen.Lines(rows))
}

// LoadTables stores a whole generated data set.
func (r *Runtime) LoadTables(tables map[string][]Row) {
	for name, rows := range tables {
		r.LoadTable(name, rows)
	}
}

// LoadTableLines stores pre-encoded rows (the codec format EncodeTable
// produces and ysmart-datagen writes) as a base table.
func (r *Runtime) LoadTableLines(name string, lines []string) {
	r.dfs.Write(TablePath(name), lines)
}

// EncodeTable renders rows in the engine's row codec, one line per row —
// the format LoadTableLines and the DFS consume.
func EncodeTable(rows []Row) []string { return datagen.Lines(rows) }

// Result is an executed query: its rows plus execution statistics.
type Result struct {
	Schema *Schema
	Rows   []Row
	Stats  *ChainStats
	// Reuse reports the cross-query rewrite the run executed: jobs skipped,
	// store hits/misses, bytes and predicted seconds saved. Without
	// WithReuse it is the identity rewrite — nothing looked up or skipped.
	Reuse *ReusePlan
}

// RunOption configures one Run invocation (tracing, metrics).
type RunOption func(*runConfig)

type runConfig struct {
	tracer  *obs.Collector
	metrics *obs.Registry
	logger  *obs.Logger
	reuse   *reuse.Store
}

// WithTracer attaches a tracer to the run: the engine emits job/phase/wave
// spans and DFS/CMF instants stamped with the simulated clock. Execution
// results and stats are unchanged; a nil collector is tracing off.
func WithTracer(t *Collector) RunOption { return func(c *runConfig) { c.tracer = t } }

// WithMetrics attaches a registry accumulating engine, DFS and CMF
// counters, gauges and distribution histograms (job phase durations,
// shuffle bytes, rows emitted, chain latency) across the run.
func WithMetrics(r *Registry) RunOption { return func(c *runConfig) { c.metrics = r } }

// WithLogger attaches a structured event logger to the run: the engine
// logs chain and job lifecycle, retries, recomputes and node failures as
// one JSON event per line on the simulated clock.
func WithLogger(l *Logger) RunOption { return func(c *runConfig) { c.logger = l } }

// WithReuse executes the translation through the cross-query reuse store
// (the -reuse CLI flag): sub-plans whose fingerprints match a valid
// stored artifact are served from the store instead of re-executed, and
// the outputs of the jobs that do run are recorded for future queries.
// An artifact is served only while the base tables it was computed from
// hold the same lines in this runtime's DFS: each run versions its tables
// by a digest of their content, so reloading a table with other data
// misses, and any number of runtimes may share one store without serving
// each other's answers. Result rows are byte-identical with and without
// reuse; Result.Reuse carries the accounting.
func WithReuse(s *ReuseStore) RunOption { return func(c *runConfig) { c.reuse = s } }

// NewReuseStore returns an empty cross-query reuse store. capBytes bounds
// the stored artifact bytes (0 = unbounded); reg, when non-nil, receives
// the ysmart_reuse_* metric families.
func NewReuseStore(capBytes int64, reg *Registry) *ReuseStore {
	return reuse.NewStore(capBytes, reg)
}

// Run executes a translation and reads back its result. The translation is
// only read: one Translation may run on any number of runtimes at once.
func (r *Runtime) Run(t *Translation, opts ...RunOption) (*Result, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	r.engine.Instrument(cfg.tracer, cfg.metrics)
	defer r.engine.Instrument(nil, nil)
	r.engine.SetLogger(cfg.logger)
	defer r.engine.SetLogger(nil)
	res, err := translator.Run(context.Background(), t, r.engine, cfg.reuse, nil)
	if err != nil {
		return nil, err
	}
	rows, err := res.Rows()
	if err != nil {
		return nil, err
	}
	return &Result{Schema: t.OutputSchema, Rows: rows, Stats: res.Stats, Reuse: res.Reuse}, nil
}

// ---------------------------------------------------------------------------
// Observability re-exports
// ---------------------------------------------------------------------------

// NewCollector returns an in-memory tracer.
func NewCollector() *Collector { return obs.NewCollector() }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewLogger returns a structured JSON event logger writing events at or
// above min to w. A nil *Logger is a valid no-op receiver.
func NewLogger(w io.Writer, min LogLevel) *Logger { return obs.NewLogger(w, min) }

// ParseLogLevel maps "debug", "info", "warn" or "error" to its LogLevel.
func ParseLogLevel(name string) (LogLevel, bool) { return obs.ParseLevel(name) }

// OpenLog resolves the CLIs' -log / -log-level pair: a logger writing
// events at or above the named level to the file at path ("-" = stderr),
// and the function that closes the file. An empty path is logging off: a
// nil logger and a no-op close.
func OpenLog(path, level string) (*Logger, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	min, ok := ParseLogLevel(level)
	if !ok {
		return nil, nil, fmt.Errorf("unknown log level %q", level)
	}
	if path == "-" {
		return NewLogger(os.Stderr, min), func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return NewLogger(f, min), func() { f.Close() }, nil
}

// ChromeTrace renders collected events as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
func ChromeTrace(events []TraceEvent) []byte { return obs.ChromeTrace(events) }

// RenderTimeline renders collected events as an ASCII Gantt chart of the
// simulated execution, width characters wide.
func RenderTimeline(events []TraceEvent, width int) string { return obs.Timeline(events, width) }

// WriteMetrics dumps a registry in Prometheus text exposition format.
func WriteMetrics(w io.Writer, r *Registry) error { return obs.WritePrometheus(w, r) }

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string { return obs.FormatBytes(n) }

// ---------------------------------------------------------------------------
// Data generation and the DBMS baseline
// ---------------------------------------------------------------------------

// GenerateTPCH produces the deterministic TPC-H subset.
func GenerateTPCH(cfg datagen.TPCHConfig) (map[string][]Row, error) {
	return datagen.TPCH(cfg)
}

// GenerateClicks produces the deterministic click-stream table.
func GenerateClicks(cfg datagen.ClickConfig) (map[string][]Row, error) {
	return datagen.Clickstream(cfg)
}

// Re-exported generator configuration types and defaults.
type (
	// TPCHConfig sizes the TPC-H generator.
	TPCHConfig = datagen.TPCHConfig
	// ClickConfig sizes the click-stream generator.
	ClickConfig = datagen.ClickConfig
)

// Default generator configurations.
var (
	DefaultTPCH   = datagen.DefaultTPCH
	DefaultClicks = datagen.DefaultClicks
)

// OracleResult runs the query on the single-node pipelined executor — the
// correctness oracle and the paper's "ideal parallel DBMS" baseline.
func OracleResult(q *Query, cat Catalog, tables map[string][]Row) ([]Row, error) {
	db := dbms.NewDatabase()
	for name, rows := range tables {
		schema, ok := cat.Table(name)
		if !ok {
			return nil, fmt.Errorf("no schema for table %q", name)
		}
		db.Load(name, schema, rows)
	}
	res, err := dbms.Execute(q.root, db)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

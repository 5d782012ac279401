// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII). Each FigN function runs the corresponding experiment
// on the simulated cluster models and returns the same rows/series the
// paper reports; Format methods render them as text tables. Absolute times
// come from the cost model, so they will not match the authors' testbed —
// the shape (who wins, by what factor, where effects appear) is the claim
// being reproduced, and EXPERIMENTS.md records both sides.
package experiments

import (
	"context"
	"fmt"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/handcoded"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/reuse"
	"ysmart/internal/translator"
)

// Paper data-set sizes (§VII.B–F), simulated through DataScale.
const (
	tpchSmallBytes   = 10e9   // 10 GB TPC-H on the small cluster and EC2-11
	tpchLargeBytes   = 100e9  // 100 GB on EC2-101
	tpchFacebookByte = 1000e9 // 1 TB on the Facebook cluster
	clicksBytes      = 20e9   // 20 GB click-stream everywhere it is used
)

// Workload owns the generated data and the DBMS oracle.
type Workload struct {
	tpch     datagen.Tables
	clicks   datagen.Tables
	DB       *dbms.Database
	tpchSize int64 // bytes of all TPC-H tables as stored in the DFS
	clickSz  int64

	// Workers is the goroutine count of every engine the figures build
	// (ysmart-bench -workers); 0 keeps NewEngine's NumCPU. Figures are
	// identical at any count.
	Workers int
}

// NewWorkload generates the experiment data set (larger than the test
// defaults for stabler ratios) and loads the oracle database.
func NewWorkload() (*Workload, error) {
	tpch, err := datagen.TPCH(datagen.TPCHConfig{
		Orders: 2000, Parts: 200, Customers: 400, Suppliers: 100, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	clicks, err := datagen.Clickstream(datagen.ClickConfig{
		Users: 300, ClicksPerUser: 60, Categories: 5, Seed: 8,
	})
	if err != nil {
		return nil, err
	}
	w := &Workload{tpch: tpch, clicks: clicks, DB: dbms.NewDatabase()}
	cat := queries.Catalog()
	for _, tables := range []datagen.Tables{tpch, clicks} {
		for name, rows := range tables {
			schema, ok := cat.Table(name)
			if !ok {
				return nil, fmt.Errorf("no schema for table %s", name)
			}
			w.DB.Load(name, schema, rows)
		}
	}
	dfs := w.FreshDFS()
	for name := range tpch {
		w.tpchSize += dfs.SizeBytes(translator.TablePath(name))
	}
	w.clickSz = dfs.SizeBytes(translator.TablePath("clicks"))
	return w, nil
}

// FreshDFS returns a new DFS pre-loaded with every workload table.
func (w *Workload) FreshDFS() *mapreduce.DFS {
	dfs := mapreduce.NewDFS()
	for _, tables := range []datagen.Tables{w.tpch, w.clicks} {
		for name, rows := range tables {
			dfs.Write(translator.TablePath(name), datagen.Lines(rows))
		}
	}
	return dfs
}

// TPCHScale returns the DataScale that stretches the generated TPC-H data
// to target simulated bytes.
func (w *Workload) TPCHScale(target float64) float64 {
	return target / float64(w.tpchSize)
}

// ClicksScale is TPCHScale for the click-stream table.
func (w *Workload) ClicksScale(target float64) float64 {
	return target / float64(w.clickSz)
}

// isTPCH reports whether a named workload query runs on TPC-H data.
func isTPCH(query string) bool { return query != "Q-CSA" && query != "Q-AGG" }

// scaleFor picks the data scale a query needs on a cluster sized for
// target TPC-H bytes; click-stream queries always use the 20 GB setting.
func (w *Workload) scaleFor(query string, tpchTarget float64) float64 {
	if isTPCH(query) {
		return w.TPCHScale(tpchTarget)
	}
	return w.ClicksScale(clicksBytes)
}

// newEngine is the one place the figures build an engine.
func (w *Workload) newEngine(dfs *mapreduce.DFS, cluster *mapreduce.Cluster) (*mapreduce.Engine, error) {
	eng, err := mapreduce.NewEngine(dfs, cluster)
	if err != nil {
		return nil, err
	}
	if w.Workers > 0 {
		eng.SetWorkers(w.Workers)
	}
	return eng, nil
}

// runPlan executes a translation on a fresh engine over dfs. store is
// translator.Run's: nil runs the plan as compiled.
func (w *Workload) runPlan(tr *translator.Translation, dfs *mapreduce.DFS, cluster *mapreduce.Cluster, store *reuse.Store) (*translator.Result, error) {
	eng, err := w.newEngine(dfs, cluster)
	if err != nil {
		return nil, err
	}
	return translator.Run(context.Background(), tr, eng, store, nil)
}

// RunTranslated translates a named workload query and executes it on the
// cluster.
func (w *Workload) RunTranslated(query string, mode translator.Mode, cluster *mapreduce.Cluster, label string) (*mapreduce.ChainStats, error) {
	stats, _, err := w.RunTranslatedResult(query, mode, cluster, label)
	return stats, err
}

// RunTranslatedResult is RunTranslated plus the query's decoded output
// rows, so callers can check result integrity — the robustness figure
// compares fault-injected outputs against fault-free ones.
func (w *Workload) RunTranslatedResult(query string, mode translator.Mode, cluster *mapreduce.Cluster, label string) (*mapreduce.ChainStats, []exec.Row, error) {
	sql, ok := queries.Named()[query]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload query %q", query)
	}
	root, err := queries.Plan(sql)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", query, err)
	}
	tr, err := translator.Translate(root, mode, translator.Options{QueryName: label})
	if err != nil {
		return nil, nil, fmt.Errorf("%s (%v): %w", query, mode, err)
	}
	res, err := w.runPlan(tr, w.FreshDFS(), cluster, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s (%v): %w", query, mode, err)
	}
	rows, err := res.Rows()
	if err != nil {
		return nil, nil, fmt.Errorf("%s (%v): %w", query, mode, err)
	}
	return res.Stats, rows, nil
}

// RunHandCoded executes one of the hand-written programs on the cluster.
func (w *Workload) RunHandCoded(query string, cluster *mapreduce.Cluster, label string) (*mapreduce.ChainStats, error) {
	var prog *handcoded.Program
	switch query {
	case "Q-AGG":
		prog = handcoded.QAGG(label)
	case "Q-CSA":
		prog = handcoded.QCSA(label)
	case "Q21":
		prog = handcoded.Q21(label)
	default:
		return nil, fmt.Errorf("no hand-coded program for %q", query)
	}
	eng, err := w.newEngine(w.FreshDFS(), cluster)
	if err != nil {
		return nil, err
	}
	return eng.RunChain(prog.Jobs)
}

// RunDBMS executes a named query on the pipelined executor and returns its
// simulated time under the "ideal parallel PostgreSQL" assumptions of
// §VII.D: 4-way parallelism over one quarter of the data.
func (w *Workload) RunDBMS(query string, dataScale float64) (float64, error) {
	sql, ok := queries.Named()[query]
	if !ok {
		return 0, fmt.Errorf("unknown workload query %q", query)
	}
	root, err := queries.Plan(sql)
	if err != nil {
		return 0, err
	}
	res, err := dbms.Execute(root, w.DB)
	if err != nil {
		return 0, err
	}
	cm := dbms.DefaultCostModel()
	cm.DataScale = dataScale / 4 // the paper gives pgsql 1/4 of the data
	cm.Parallelism = 1
	return cm.Time(res.Stats), nil
}

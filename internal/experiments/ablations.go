package experiments

import (
	"fmt"
	"strings"

	"ysmart/internal/correlation"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
)

// AblationRow is one design-choice ablation: the system with a feature
// removed, next to the full system.
type AblationRow struct {
	Name     string
	Detail   string
	Jobs     int
	Baseline int // jobs of the full system
	Time     float64
	BaseTime float64
	// Run and BaseRun carry the full breakdowns of the ablated and full
	// systems (used by the -json bench output).
	Run     Run
	BaseRun Run
}

// AblationsResult collects the design-choice ablations DESIGN.md calls out
// (beyond the rule-subset ablation, which is Fig. 9 itself).
type AblationsResult struct {
	Rows []AblationRow
}

// Ablations quantifies, on the small cluster: (1) disabling the shared
// table scan (Q-CSA reads clicks three times), (2) disabling map-side
// partial aggregation (Q-AGG ships every record), and (3) forcing Q-CSA's
// aggregations onto the wrong partition-key candidate (job-flow
// correlations disappear).
func Ablations(w *Workload) (*AblationsResult, error) {
	out := &AblationsResult{}

	run := func(query string, opts translator.Options, mutate func(*correlation.Analysis) error) (*mapreduce.ChainStats, int, error) {
		sql := queries.Named()[query]
		root, err := queries.Plan(sql)
		if err != nil {
			return nil, 0, err
		}
		a, err := correlation.Analyze(root)
		if err != nil {
			return nil, 0, err
		}
		if mutate != nil {
			if err := mutate(a); err != nil {
				return nil, 0, err
			}
		}
		tr, err := translator.TranslateAnalyzed(a, translator.YSmart, opts)
		if err != nil {
			return nil, 0, err
		}
		cluster := mapreduce.SmallCluster()
		cluster.DataScale = w.scaleFor(query, tpchSmallBytes)
		res, err := w.runPlan(tr, w.FreshDFS(), cluster, nil)
		if err != nil {
			return nil, 0, err
		}
		return res.Stats, tr.NumJobs(), nil
	}

	// 1. Shared scan off (Q-CSA).
	base, baseJobs, err := run("Q-CSA", translator.Options{QueryName: "abl-base-csa"}, nil)
	if err != nil {
		return nil, err
	}
	noShare, jobs, err := run("Q-CSA", translator.Options{QueryName: "abl-noshare", DisableSharedScan: true}, nil)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, AblationRow{
		Name:   "shared-scan-off",
		Detail: "Q-CSA reads clicks once per merged stream instead of once",
		Jobs:   jobs, Baseline: baseJobs,
		Time: noShare.TotalTime(), BaseTime: base.TotalTime(),
		Run:     runFromStats("Q-CSA", "shared-scan-off", noShare),
		BaseRun: runFromStats("Q-CSA", "ysmart", base),
	})

	// 2. Combiner off (Q-AGG).
	aggBase, aggBaseJobs, err := run("Q-AGG", translator.Options{QueryName: "abl-base-agg"}, nil)
	if err != nil {
		return nil, err
	}
	noComb, jobs, err := run("Q-AGG", translator.Options{QueryName: "abl-nocomb", DisableCombiner: true}, nil)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, AblationRow{
		Name:   "combiner-off",
		Detail: "Q-AGG ships one pair per click instead of per-task partials",
		Jobs:   jobs, Baseline: aggBaseJobs,
		Time: noComb.TotalTime(), BaseTime: aggBase.TotalTime(),
		Run:     runFromStats("Q-AGG", "combiner-off", noComb),
		BaseRun: runFromStats("Q-AGG", "ysmart", aggBase),
	})

	// 3. Wrong partition-key candidate (Q-CSA).
	badPK, jobs, err := run("Q-CSA", translator.Options{QueryName: "abl-badpk"},
		func(a *correlation.Analysis) error {
			for _, op := range a.Ops {
				if op.Kind == correlation.KindAgg && len(op.Agg.GroupBy) >= 2 {
					if err := a.OverridePK(op, []int{1}); err != nil {
						return err
					}
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, AblationRow{
		Name:   "pk-heuristic-off",
		Detail: "Q-CSA aggregations keyed on timestamps: job-flow correlations vanish",
		Jobs:   jobs, Baseline: baseJobs,
		Time: badPK.TotalTime(), BaseTime: base.TotalTime(),
		Run:     runFromStats("Q-CSA", "pk-heuristic-off", badPK),
		BaseRun: runFromStats("Q-CSA", "ysmart", base),
	})

	return out, nil
}

// Format renders the ablation table.
func (r *AblationsResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Ablations: YSmart with one design choice removed (small cluster)\n")
	fmt.Fprintf(&sb, "  %-18s %10s %12s %10s  %s\n", "ablation", "jobs", "time", "slowdown", "effect")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-18s %4d -> %2d  %5.0f->%5.0fs %9.2fx  %s\n",
			row.Name, row.Baseline, row.Jobs, row.BaseTime, row.Time,
			row.Time/row.BaseTime, row.Detail)
	}
	return sb.String()
}

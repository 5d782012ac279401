package difftest

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"ysmart"
	"ysmart/internal/queries"
)

// TestSharedTranslationConcurrentRuns is the proof that a compiled plan is
// a shareable value: for every workload query, merged and one-to-one, plain
// and with the MANIMAL rewrites, ONE translation is executed by six
// runtimes at once (workers 2; three fault-free, three under one seeded
// fault plan), and every run's rows, per-job stats — reduce work, per-operator
// dispatch and the attempt log included — and trace bytes must equal those
// of a run that had the translation to itself. Reduce tasks hand what they
// counted to the engine that ran them; nothing flows back into the plan for
// a concurrent run to pick up. Run under -race.
func TestSharedTranslationConcurrentRuns(t *testing.T) {
	const perPlan = 3
	named := queries.Named()
	faultPlans := FaultPlans(5)
	for _, name := range QueryNames() {
		for _, mode := range []ysmart.Mode{ysmart.YSmart, ysmart.OneToOne} {
			for _, optimize := range []bool{false, true} {
				label := name + "/" + mode.String() + "/plain"
				if optimize {
					label = name + "/" + mode.String() + "/manimal"
				}
				t.Run(label, func(t *testing.T) {
					tr := compiled(t, name, named[name], mode, optimize)
					solo := make([]*Run, len(faultPlans))
					for p, plan := range faultPlans {
						var err error
						if solo[p], err = Execute(tr, 2, plan, workload); err != nil {
							t.Fatal(err)
						}
					}
					runs := make([]*Run, perPlan*len(faultPlans))
					errs := make([]error, len(runs))
					var wg sync.WaitGroup
					for i := range runs {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							runs[i], errs[i] = Execute(tr, 2, faultPlans[i%len(faultPlans)], workload)
						}(i)
					}
					wg.Wait()
					for i, got := range runs {
						if errs[i] != nil {
							t.Fatal(errs[i])
						}
						want, plan := solo[i%len(faultPlans)], PlanLabel(faultPlans[i%len(faultPlans)])
						if !reflect.DeepEqual(got.Rows, want.Rows) {
							t.Errorf("run %d (%s): rows differ from the solo run", i, plan)
						}
						if !reflect.DeepEqual(got.Jobs, want.Jobs) {
							for k := range want.Jobs {
								if k < len(got.Jobs) && !reflect.DeepEqual(got.Jobs[k], want.Jobs[k]) {
									t.Errorf("run %d (%s): job %d stats differ from the solo run:\n got  %+v\n want %+v",
										i, plan, k, *got.Jobs[k], *want.Jobs[k])
									break
								}
							}
						}
						if !bytes.Equal(got.Trace, want.Trace) {
							t.Errorf("run %d (%s): trace bytes differ from the solo run (%d vs %d bytes)",
								i, plan, len(got.Trace), len(want.Trace))
						}
					}
				})
			}
		}
	}
}

package difftest

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"ysmart"
	"ysmart/internal/queries"
)

// TestReuseByteIdentical is the ISSUE's differential acceptance proof for
// cross-query reuse: for every workload query, fault-free and under a
// seeded fault plan, in full-hit and partial-hit (root artifact evicted)
// modes, the warm replay's rows must be byte-identical to the cold run's
// and to the DBMS oracle — and the warm run itself must stay invariant
// under the worker count (rows, per-job stats, trace bytes at workers
// 1, 2 and 8), with the expected number of jobs actually skipped.
func TestReuseByteIdentical(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		t.Run(name, func(t *testing.T) {
			oracle, err := Oracle(sql, workload)
			if err != nil {
				t.Fatal(err)
			}
			tr := compiled(t, name, sql, ysmart.YSmart, false)
			for _, plan := range FaultPlans(3) {
				for _, partial := range []bool{false, true} {
					label := PlanLabel(plan) + "/full"
					if partial {
						label = PlanLabel(plan) + "/partial"
					}
					t.Run(label, func(t *testing.T) {
						base, err := ExecuteReuse(tr, 1, plan, workload, partial)
						if err != nil {
							t.Fatal(err)
						}
						// Warm rows must match cold rows in order, and both
						// must match the independent oracle.
						if !slices.EqualFunc(base.Warm.Rows, base.Cold.Rows, ysmart.Row.Identical) {
							t.Errorf("warm rows differ from cold rows (%d vs %d)",
								len(base.Warm.Rows), len(base.Cold.Rows))
						}
						diffLines(t, "warm vs oracle", base.Warm.SortedLines(), oracle)
						// The skip accounting must prove reuse actually
						// happened: a full warm replay runs nothing, a
						// partial one re-runs exactly the final job.
						rp := base.Warm.Reuse
						wantJobs := 0
						if partial {
							wantJobs = 1
						}
						if len(rp.Jobs) != wantJobs || rp.Skipped != rp.Total-wantJobs {
							t.Errorf("warm chain ran %d of %d jobs (skipped %d), want %d run",
								len(rp.Jobs), rp.Total, rp.Skipped, wantJobs)
						}
						if !partial && rp.Skipped == 0 {
							t.Errorf("full warm replay skipped nothing")
						}
						// The warm replay must be invariant under the worker
						// count, exactly like a normal run.
						for _, w := range []int{2, 8} {
							got, err := ExecuteReuse(tr, w, plan, workload, partial)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.EqualFunc(got.Warm.Rows, base.Warm.Rows, ysmart.Row.Identical) {
								t.Errorf("workers=%d: warm rows differ from workers=1", w)
							}
							if !reflect.DeepEqual(got.Warm.Jobs, base.Warm.Jobs) {
								t.Errorf("workers=%d: warm job stats differ from workers=1", w)
							}
							if !bytes.Equal(got.Warm.Trace, base.Warm.Trace) {
								t.Errorf("workers=%d: warm trace bytes differ from workers=1 (%d vs %d bytes)",
									w, len(got.Warm.Trace), len(base.Warm.Trace))
							}
						}
					})
				}
			}
		})
	}
}

// TestReusePartialFinalJobStats pins the partial-replay cost shape on the
// fault-free cluster (no inter-job contention gaps on the harness model):
// the one job a partial warm replay re-executes reads artifact inputs that
// are byte-for-byte the cold run's intermediate outputs, so its stats must
// equal the cold run's final-job stats exactly.
func TestReusePartialFinalJobStats(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		t.Run(name, func(t *testing.T) {
			run, err := ExecuteReuse(compiled(t, name, sql, ysmart.YSmart, false), 8, nil, workload, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Warm.Jobs) != 1 {
				t.Fatalf("partial warm replay ran %d jobs, want 1", len(run.Warm.Jobs))
			}
			coldFinal := run.Cold.Jobs[len(run.Cold.Jobs)-1]
			if !reflect.DeepEqual(run.Warm.Jobs[0], coldFinal) {
				t.Errorf("warm final-job stats differ from cold final job:\n got  %+v\n want %+v",
					*run.Warm.Jobs[0], *coldFinal)
			}
		})
	}
}

package difftest

import (
	"fmt"
	"slices"

	"ysmart"
	"ysmart/internal/mapreduce"
)

// ReuseRun is one cold-then-warm execution pair through a shared
// cross-query artifact store: the cold run executes everything and
// materializes each job's output; the warm run replays the same query on a
// fresh runtime loaded with the same tables — the cross-runtime shape
// server sessions exercise — and must be able to skip every job whose
// artifact the store still holds.
type ReuseRun struct {
	Cold, Warm *Run
}

// ExecuteReuse runs one compiled query twice through a private store:
// cold, then warm. partial forgets the result-producing job's artifact
// between the rounds, so the warm chain must re-execute exactly the final
// job against the restored intermediate artifacts.
func ExecuteReuse(tr *ysmart.Translation, workers int, plan *mapreduce.FaultPlan, tables map[string][]ysmart.Row, partial bool) (*ReuseRun, error) {
	store := ysmart.NewReuseStore(0, nil)
	cold, err := execute(tr, workers, plan, tables, store)
	if err != nil {
		return nil, fmt.Errorf("cold: %w", err)
	}
	if partial {
		root := slices.IndexFunc(tr.Jobs, func(j *mapreduce.Job) bool { return j.Output == tr.Output })
		arts := tr.Artifacts()
		if root < 0 || root >= len(arts) {
			return nil, fmt.Errorf("translation carries no artifacts")
		}
		store.Forget(arts[root].Fingerprint)
	}
	warm, err := execute(tr, workers, plan, tables, store)
	if err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	return &ReuseRun{Cold: cold, Warm: warm}, nil
}

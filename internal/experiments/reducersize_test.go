package experiments

import (
	"testing"

	"ysmart/internal/mapreduce"
	"ysmart/internal/translator"
)

// TestMergedJobsTradeJobsForReducerSize places the two translations of Q21
// on the curve of Afrati et al. (PAPERS.md): merging correlated operations
// into common jobs means fewer jobs, each asking more of its reducers — the
// largest measured reducer size q (values one reduce task receives) grows,
// while the records the chain sends through map output shrink because
// shared scans are read and emitted once.
func TestMergedJobsTradeJobsForReducerSize(t *testing.T) {
	w := testWorkload(t)
	measure := func(mode translator.Mode) (jobs int, maxQ, mapOut int64, maxSkew float64) {
		stats, err := w.RunTranslated("Q21", mode, mapreduce.SmallCluster(), "q21-q")
		if err != nil {
			t.Fatal(err)
		}
		for _, js := range stats.Jobs {
			maxQ = max(maxQ, js.MaxPartitionValues)
			mapOut += js.MapOutputRecords
			maxSkew = max(maxSkew, js.PartitionSkew())
			if !js.MapOnly && (js.MaxPartitionValues*int64(js.NumReduceTasks) < js.ReduceInputRecords ||
				js.MaxPartitionValues > js.ReduceInputRecords) {
				t.Errorf("%v %s: max partition %d values of %d over %d reduce tasks", mode, js.Name,
					js.MaxPartitionValues, js.ReduceInputRecords, js.NumReduceTasks)
			}
		}
		return stats.NumJobs(), maxQ, mapOut, maxSkew
	}
	hiveJobs, hiveQ, hiveOut, hiveSkew := measure(translator.OneToOne)
	ysJobs, ysQ, ysOut, ysSkew := measure(translator.YSmart)
	t.Logf("Q21 one-to-one: %d jobs, max q %d, %d map-output records, max skew %.2f", hiveJobs, hiveQ, hiveOut, hiveSkew)
	t.Logf("Q21 ysmart:     %d jobs, max q %d, %d map-output records, max skew %.2f", ysJobs, ysQ, ysOut, ysSkew)
	if ysJobs >= hiveJobs {
		t.Errorf("ysmart runs %d jobs, one-to-one %d: merging must shorten the chain", ysJobs, hiveJobs)
	}
	if ysQ <= hiveQ {
		t.Errorf("ysmart's largest reducer size is %d, one-to-one's %d: merged jobs must ask more of a reducer", ysQ, hiveQ)
	}
	if ysOut >= hiveOut {
		t.Errorf("ysmart maps out %d records, one-to-one %d: shared scans must cut the chain's communication", ysOut, hiveOut)
	}
}

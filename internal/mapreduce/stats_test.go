package mapreduce

import (
	"strings"
	"testing"
)

func TestJobStatsTimesAndString(t *testing.T) {
	s := &JobStats{
		Name:           "j1[AGG]",
		MapInputBytes:  5 << 20,
		MapOutputBytes: 1 << 10,
		NumMapTasks:    3,
		NumReduceTasks: 2,
		ReduceGroups:   7,
		StartupTime:    12,
		MapTime:        100,
		ShuffleTime:    5,
		ReduceTime:     30,
		GapBefore:      8,
	}
	if got := s.TotalTime(); got != 155 {
		t.Errorf("TotalTime = %f, want 155", got)
	}
	if got := s.ReducePhaseTime(); got != 35 {
		t.Errorf("ReducePhaseTime = %f, want 35", got)
	}
	str := s.String()
	for _, want := range []string{"j1[AGG]", "3 tasks", "5.00MB", "1.00KB", "7 groups"} {
		if !strings.Contains(str, want) {
			t.Errorf("String missing %q: %s", want, str)
		}
	}
}

func TestChainStatsAggregates(t *testing.T) {
	c := &ChainStats{Jobs: []*JobStats{
		{Name: "a", MapInputBytes: 100, ShuffleBytes: 10, MapTime: 1, StartupTime: 2},
		{Name: "b", MapInputBytes: 200, ShuffleBytes: 30, ReduceTime: 4, GapBefore: 5},
	}}
	if c.NumJobs() != 2 {
		t.Errorf("NumJobs = %d", c.NumJobs())
	}
	if got := c.TotalMapInputBytes(); got != 300 {
		t.Errorf("TotalMapInputBytes = %d", got)
	}
	if got := c.TotalShuffleBytes(); got != 40 {
		t.Errorf("TotalShuffleBytes = %d", got)
	}
	if got := c.TotalTime(); got != 12 {
		t.Errorf("TotalTime = %f, want 12", got)
	}
	if !strings.Contains(c.String(), "2 jobs") {
		t.Errorf("String = %q", c.String())
	}
}

// TestFmtBytes: the per-job summary renders its byte counts in the
// canonical units.
func TestFmtBytes(t *testing.T) {
	for in, want := range map[int64]string{
		17:          "17B",
		3 << 10:     "3.00KB",
		5 << 20:     "5.00MB",
		2 << 30:     "2.00GB",
		1<<30 + 512: "1.00GB",
	} {
		s := &JobStats{Name: "j", MapInputBytes: in, MapOutputBytes: in}
		if got, sub := s.String(), "in "+want+", out "+want+")"; !strings.Contains(got, sub) {
			t.Errorf("String() with %d bytes = %q, want it to contain %q", in, got, sub)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	cluster := SmallCluster()
	e, err := NewEngine(NewDFS(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cluster() != cluster {
		t.Error("Cluster accessor broken")
	}
	if e.DFS() == nil {
		t.Error("DFS accessor broken")
	}
}

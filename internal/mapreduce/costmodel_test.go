package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"
)

// Cost-model monotonicity properties: more data, fewer resources, or more
// adverse conditions can never make a job faster. Each property runs the
// same real job under two parameterizations and compares simulated times.

func costProbe(t *testing.T, mutate func(*Cluster), lines int) *JobStats {
	t.Helper()
	cluster := SmallCluster()
	cluster.DataScale = 20000
	if mutate != nil {
		mutate(cluster)
	}
	dfs := NewDFS()
	data := make([]string, lines)
	for i := range data {
		data[i] = fmt.Sprintf("key%d filler filler filler filler", i%37)
	}
	dfs.Write("in", data)
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.RunJob(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCostMonotoneInData(t *testing.T) {
	small := costProbe(t, nil, 500)
	big := costProbe(t, nil, 2000)
	if big.TotalTime() <= small.TotalTime() {
		t.Errorf("4x data not slower: %.1f <= %.1f", big.TotalTime(), small.TotalTime())
	}
}

func TestCostMonotoneInBandwidth(t *testing.T) {
	fast := costProbe(t, nil, 1000)
	slow := costProbe(t, func(c *Cluster) { c.Cost.DiskBandwidth /= 4 }, 1000)
	if slow.TotalTime() <= fast.TotalTime() {
		t.Errorf("slower disk not slower overall: %.1f <= %.1f", slow.TotalTime(), fast.TotalTime())
	}
	slowNet := costProbe(t, func(c *Cluster) { c.Cost.NetworkBandwidth /= 100 }, 1000)
	if slowNet.ShuffleTime <= fast.ShuffleTime {
		t.Errorf("slower network did not slow the shuffle: %.1f <= %.1f",
			slowNet.ShuffleTime, fast.ShuffleTime)
	}
}

func TestCostMonotoneInSlots(t *testing.T) {
	wide := costProbe(t, func(c *Cluster) { c.MapSlotsPerNode = 16; c.ReduceSlotsPerNode = 16 }, 1000)
	narrow := costProbe(t, func(c *Cluster) { c.MapSlotsPerNode = 1; c.ReduceSlotsPerNode = 1 }, 1000)
	if narrow.TotalTime() < wide.TotalTime() {
		t.Errorf("fewer slots faster: %.1f < %.1f", narrow.TotalTime(), wide.TotalTime())
	}
}

func TestCostMonotoneInReplication(t *testing.T) {
	r1 := costProbe(t, func(c *Cluster) { c.Cost.HDFSReplication = 1 }, 1000)
	r5 := costProbe(t, func(c *Cluster) { c.Cost.HDFSReplication = 5 }, 1000)
	if r5.ReduceTime < r1.ReduceTime {
		t.Errorf("higher replication faster: %.1f < %.1f", r5.ReduceTime, r1.ReduceTime)
	}
}

func TestCostMonotoneRandomizedKnobs(t *testing.T) {
	// Randomized single-knob degradations must never speed the job up.
	rng := rand.New(rand.NewSource(9))
	base := costProbe(t, nil, 800)
	knobs := []func(*Cluster, float64){
		func(c *Cluster, f float64) { c.Cost.DiskBandwidth /= 1 + f },
		func(c *Cluster, f float64) { c.Cost.NetworkBandwidth /= 1 + f },
		func(c *Cluster, f float64) { c.Cost.MapCPUPerRecord *= 1 + f },
		func(c *Cluster, f float64) { c.Cost.ReduceCPUPerRecord *= 1 + f },
		func(c *Cluster, f float64) { c.Cost.JobStartup *= 1 + f },
		func(c *Cluster, f float64) { c.DataScale *= 1 + f },
	}
	for trial := 0; trial < 40; trial++ {
		ki := rng.Intn(len(knobs))
		f := rng.Float64() * 5
		degraded := costProbe(t, func(c *Cluster) { knobs[ki](c, f) }, 800)
		if degraded.TotalTime() < base.TotalTime()-1e-9 {
			t.Fatalf("trial %d: degrading knob %d by %.2f made the job faster (%.2f < %.2f)",
				trial, ki, f, degraded.TotalTime(), base.TotalTime())
		}
	}
}

package mapreduce

import "fmt"

// CostModel holds the hardware and framework constants that convert
// measured byte/record counters into simulated wall-clock seconds. The
// defaults approximate the Hadoop 0.19/0.20 clusters of the paper (§VII.B);
// absolute values are less important than their ratios, which determine the
// shape of every experiment.
type CostModel struct {
	// DiskBandwidth is the aggregate local-disk bandwidth per node (B/s).
	DiskBandwidth float64
	// NetworkBandwidth is the usable network bandwidth per node (B/s).
	NetworkBandwidth float64
	// MapCPUPerRecord is the map-function CPU cost per input record (s).
	MapCPUPerRecord float64
	// PrefilterCPUFactor is the fraction of MapCPUPerRecord charged for a
	// record rejected by an early filter (Input.Prefilter): the record is
	// still decoded far enough to evaluate the predicate, but the full map
	// function never runs. Values outside (0, 1] fall back to the default.
	PrefilterCPUFactor float64
	// ReduceCPUPerRecord is the reduce-function CPU cost per input value (s).
	ReduceCPUPerRecord float64
	// SortCPUPerByte is the map-output sort cost (s/B).
	SortCPUPerByte float64
	// CompressCPUPerByte / DecompressCPUPerByte are charged on map output
	// when compression is enabled (s/B).
	CompressCPUPerByte   float64
	DecompressCPUPerByte float64
	// CompressionRatio is the compressed/raw size of map output.
	CompressionRatio float64
	// HDFSReplication is the DFS replication factor; reduce output pays
	// (replication-1) network copies.
	HDFSReplication int
	// JobStartup is the fixed per-job cost of scheduling and JVM start (s).
	JobStartup float64
	// TaskOverhead is the scheduling cost per task wave (s).
	TaskOverhead float64
	// SplitSize is the map input split size in (scaled) bytes.
	SplitSize int64
}

// DefaultCostModel returns constants calibrated to 2010-era commodity
// hardware: ~60 MB/s effective disk scan, gigabit Ethernet, and Hadoop's
// heavyweight per-job start-up.
func DefaultCostModel() CostModel {
	return CostModel{
		DiskBandwidth:      60e6,
		NetworkBandwidth:   100e6,
		MapCPUPerRecord:    3e-6,
		PrefilterCPUFactor: defaultPrefilterCPUFactor,
		ReduceCPUPerRecord: 2e-6,
		SortCPUPerByte:     10e-9,
		// Codec throughput reflects zlib on 2009-era cores oversubscribed by
		// multiple task slots — the regime in which the paper measured that
		// compression degrades every query (§VII.E conclusion 3).
		CompressCPUPerByte:   120e-9,
		DecompressCPUPerByte: 40e-9,
		CompressionRatio:     0.35,
		HDFSReplication:      3,
		JobStartup:           12,
		TaskOverhead:         1.5,
		SplitSize:            64 << 20,
	}
}

// Contention models a busy shared cluster (the Facebook production cluster
// of §VII.F): a fraction of slots is taken by co-running jobs and extra
// scheduling delay appears between consecutive jobs of a chain. Delays are
// drawn from a deterministic generator so runs are reproducible.
type Contention struct {
	Enabled bool
	// SlotFactor is the fraction of task slots available to this workload.
	SlotFactor float64
	// LoadFactor multiplies phase execution times, modelling I/O
	// interference and stragglers from co-running jobs (>= 1).
	LoadFactor float64
	// GapMin/GapMax bound the extra scheduling delay inserted before each
	// job after the first (seconds). The paper observed gaps up to 5.4
	// minutes between consecutive Hive jobs (§VII.F.2).
	GapMin, GapMax float64
	// Seed selects the deterministic delay sequence.
	Seed int64
}

// Cluster describes the simulated cluster an engine runs on.
type Cluster struct {
	Name               string
	Nodes              int // worker nodes (JobTracker not counted)
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	Cost               CostModel
	// Compress enables map-output compression (Fig. 11's "c" variant).
	Compress bool
	// DataScale multiplies actual byte/record counts before costing, so
	// laptop-scale inputs exercise the cost model at paper-scale sizes.
	DataScale  float64
	Contention Contention
	// Faults, when non-nil and non-zero, switches the engine from the
	// analytic cost path to event-level scheduling: task attempts are
	// placed on concrete slots, injected failures/node deaths/stragglers
	// trigger real re-execution of user code, and phase times come from
	// the resulting schedule. A nil or zero plan leaves results and
	// JobStats byte-identical to a plan-free cluster.
	Faults *FaultPlan
	// Speculation enables backup attempts for stragglers. It only has an
	// effect when Faults injects stragglers.
	Speculation Speculation
}

// Validate checks the configuration is usable.
func (c *Cluster) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster %s: nodes must be positive", c.Name)
	case c.MapSlotsPerNode <= 0 || c.ReduceSlotsPerNode <= 0:
		return fmt.Errorf("cluster %s: slots must be positive", c.Name)
	case c.DataScale <= 0:
		return fmt.Errorf("cluster %s: data scale must be positive", c.Name)
	case c.Cost.HDFSReplication < 1:
		return fmt.Errorf("cluster %s: replication must be >= 1", c.Name)
	case c.Contention.Enabled && (c.Contention.SlotFactor <= 0 || c.Contention.SlotFactor > 1):
		return fmt.Errorf("cluster %s: contention slot factor must be in (0,1]", c.Name)
	case c.Contention.Enabled && c.Contention.LoadFactor < 1:
		return fmt.Errorf("cluster %s: contention load factor must be >= 1", c.Name)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Nodes); err != nil {
			return fmt.Errorf("cluster %s: %w", c.Name, err)
		}
	}
	return nil
}

// defaultPrefilterCPUFactor is the per-record CPU fraction a prefiltered
// line costs when the cost model does not set its own factor: roughly the
// decode-and-compare share of a typical map function.
const defaultPrefilterCPUFactor = 0.15

// prefilterFactor returns the clamped PrefilterCPUFactor.
func (cm CostModel) prefilterFactor() float64 {
	if cm.PrefilterCPUFactor <= 0 || cm.PrefilterCPUFactor > 1 {
		return defaultPrefilterCPUFactor
	}
	return cm.PrefilterCPUFactor
}

// loadFactor returns the contention execution multiplier (1 when idle).
func (c *Cluster) loadFactor() float64 {
	if c.Contention.Enabled {
		return c.Contention.LoadFactor
	}
	return 1
}

// effectiveNodes returns the node count available for disk and network
// throughput: co-running jobs consume the same share of I/O as of slots.
func (c *Cluster) effectiveNodes() float64 {
	n := float64(c.Nodes)
	if c.Contention.Enabled {
		n *= c.Contention.SlotFactor
	}
	if n < 1 {
		n = 1
	}
	return n
}

// mapSlots returns the effective cluster-wide map slots.
func (c *Cluster) mapSlots() float64 {
	s := float64(c.Nodes * c.MapSlotsPerNode)
	if c.Contention.Enabled {
		s *= c.Contention.SlotFactor
	}
	if s < 1 {
		s = 1
	}
	return s
}

// reduceSlots returns the effective cluster-wide reduce slots.
func (c *Cluster) reduceSlots() float64 {
	s := float64(c.Nodes * c.ReduceSlotsPerNode)
	if c.Contention.Enabled {
		s *= c.Contention.SlotFactor
	}
	if s < 1 {
		s = 1
	}
	return s
}

// DefaultReduceTasks is the number of reduce tasks used when a job does not
// specify one (Hadoop convention: about one per reduce slot).
func (c *Cluster) DefaultReduceTasks() int {
	n := c.Nodes * c.ReduceSlotsPerNode
	if n < 1 {
		n = 1
	}
	return n
}

// SmallCluster is the paper's two-node lab cluster: one TaskTracker node
// with four task slots (§VII.B item 1).
func SmallCluster() *Cluster {
	return &Cluster{
		Name:               "small-2node",
		Nodes:              1,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 4,
		Cost:               DefaultCostModel(),
		DataScale:          1,
	}
}

// EC2Cluster models the paper's Amazon EC2 clusters of small instances
// (1 virtual core each, §VII.B item 2). workers is the number of worker
// nodes (10 or 100 in the paper; the 11th/101st node runs the JobTracker).
func EC2Cluster(workers int) *Cluster {
	cost := DefaultCostModel()
	// EC2 small instances: slower local disk and shared network.
	cost.DiskBandwidth = 45e6
	cost.NetworkBandwidth = 60e6
	return &Cluster{
		Name:               fmt.Sprintf("ec2-%dnode", workers+1),
		Nodes:              workers,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		Cost:               cost,
		DataScale:          1,
	}
}

// FacebookCluster models the 747-node production cluster (§VII.B item 3,
// 8 cores, 12 disks per node) with contention from co-running workloads
// enabled (§VII.F).
func FacebookCluster(seed int64) *Cluster {
	cost := DefaultCostModel()
	cost.DiskBandwidth = 300e6 // 12 spindles
	cost.NetworkBandwidth = 100e6
	return &Cluster{
		Name:               "facebook-747node",
		Nodes:              747,
		MapSlotsPerNode:    8,
		ReduceSlotsPerNode: 4,
		Cost:               cost,
		DataScale:          1,
		Contention: Contention{
			Enabled:    true,
			SlotFactor: 0.35,
			LoadFactor: 2,
			GapMin:     20,
			GapMax:     330, // the paper observed gaps up to 5.4 minutes
			Seed:       seed,
		},
	}
}

package experiments

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"ysmart/internal/mapreduce"
)

// The workload is expensive to generate; share one across tests.
var (
	sharedOnce sync.Once
	sharedW    *Workload
	sharedErr  error
)

func testWorkload(t *testing.T) *Workload {
	t.Helper()
	sharedOnce.Do(func() { sharedW, sharedErr = NewWorkload() })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedW
}

// TestWorkloadWorkersReachEngines: the -workers count travels on the
// Workload to every engine a figure builds; zero keeps NewEngine's NumCPU.
func TestWorkloadWorkersReachEngines(t *testing.T) {
	for _, tt := range []struct{ set, want int }{{0, runtime.NumCPU()}, {3, 3}} {
		w := &Workload{Workers: tt.set}
		eng, err := w.newEngine(mapreduce.NewDFS(), mapreduce.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		if eng.Workers() != tt.want {
			t.Errorf("Workers = %d: engine has %d workers, want %d", tt.set, eng.Workers(), tt.want)
		}
	}
}

// TestFig2bShape: Hive is competitive with hand-coded MR on the simple
// aggregation but loses by a large factor on the click-stream query.
func TestFig2bShape(t *testing.T) {
	w := testWorkload(t)
	r, err := Fig2b(w)
	if err != nil {
		t.Fatal(err)
	}
	aggHive, aggHand := r.Runs[0], r.Runs[1]
	csaHive, csaHand := r.Runs[2], r.Runs[3]
	if aggHive.Query != "Q-AGG" || csaHive.Query != "Q-CSA" {
		t.Fatalf("unexpected run order: %+v", r.Runs)
	}
	// Q-AGG: comparable (within 40%; the paper shows near-equal bars).
	if aggHive.Total > 1.4*aggHand.Total {
		t.Errorf("Q-AGG hive %.0fs vs hand %.0fs: want comparable", aggHive.Total, aggHand.Total)
	}
	// Q-CSA: hand-coded at least 2x faster (paper: ~3x).
	if csaHive.Total < 2*csaHand.Total {
		t.Errorf("Q-CSA hive %.0fs vs hand %.0fs: want >= 2x gap", csaHive.Total, csaHand.Total)
	}
	// Job counts: 1/1 for Q-AGG, 6/2 for Q-CSA.
	if len(csaHive.Jobs) != 6 || len(csaHand.Jobs) != 2 {
		t.Errorf("Q-CSA job counts = %d/%d, want 6/2", len(csaHive.Jobs), len(csaHand.Jobs))
	}
	if !strings.Contains(r.Format(), "Q-CSA") {
		t.Error("Format output incomplete")
	}
}

// TestFig9Shape: strict ordering one-op-one-job > ic+tc > ysmart >= hand,
// with the paper's approximate ratios.
func TestFig9Shape(t *testing.T) {
	w := testWorkload(t)
	r, err := Fig9(w)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.OneToOne.Total > r.ICTC.Total && r.ICTC.Total > r.YSmart.Total && r.YSmart.Total >= r.Hand.Total) {
		t.Errorf("ordering violated: %0.fs / %.0fs / %.0fs / %.0fs",
			r.OneToOne.Total, r.ICTC.Total, r.YSmart.Total, r.Hand.Total)
	}
	if len(r.OneToOne.Jobs) != 5 || len(r.ICTC.Jobs) != 3 || len(r.YSmart.Jobs) != 1 || len(r.Hand.Jobs) != 1 {
		t.Errorf("job counts = %d/%d/%d/%d, want 5/3/1/1",
			len(r.OneToOne.Jobs), len(r.ICTC.Jobs), len(r.YSmart.Jobs), len(r.Hand.Jobs))
	}
	// Paper: ic+tc is a 167% speedup, ysmart 203%. Accept 1.2x-4x bands.
	ictcSpeed := r.OneToOne.Total / r.ICTC.Total
	ysSpeed := r.OneToOne.Total / r.YSmart.Total
	if ictcSpeed < 1.2 || ictcSpeed > 4 {
		t.Errorf("ic+tc speedup %.2fx out of band (paper 1.67x)", ictcSpeed)
	}
	if ysSpeed < 1.5 || ysSpeed > 5 {
		t.Errorf("ysmart speedup %.2fx out of band (paper 2.03x)", ysSpeed)
	}
	// YSmart within 2x of hand-coded (paper: 1.17x).
	if r.YSmart.Total > 2*r.Hand.Total {
		t.Errorf("ysmart %.0fs vs hand %.0fs: more than 2x", r.YSmart.Total, r.Hand.Total)
	}
	// The paper: map phases of the three lineitem-scanning jobs dominate
	// one-op-one-job (65% of total).
	var mapSum float64
	for _, j := range r.OneToOne.Jobs {
		mapSum += j.Map
	}
	if frac := mapSum / r.OneToOne.Total; frac < 0.4 {
		t.Errorf("one-to-one map fraction %.2f, want dominant (paper 0.65)", frac)
	}
}

// TestFig10Shape: YSmart beats Hive and Pig on every query; Pig never beats
// Hive; pgsql wins the TPC-H queries but not Q-CSA by much.
func TestFig10Shape(t *testing.T) {
	w := testWorkload(t)
	r, err := Fig10(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.YSmart.Total >= row.Hive.Total {
			t.Errorf("%s: ysmart %.0fs not faster than hive %.0fs", row.Query, row.YSmart.Total, row.Hive.Total)
		}
		if row.Hive.Total > row.Pig.Total {
			t.Errorf("%s: hive %.0fs slower than pig %.0fs (paper: hive is the consistent winner)",
				row.Query, row.Hive.Total, row.Pig.Total)
		}
		speed := row.Hive.Total / row.YSmart.Total
		// Q-CSA's intermediate-result amplification depends strongly on the
		// click distribution; the paper itself measured 2.66x on the small
		// cluster and 4.87x on EC2, so its band is wider.
		lo, hi := 1.5, 6.0
		if row.Query == "Q-CSA" {
			lo, hi = 2.0, 10.0
		}
		if speed < lo || speed > hi {
			t.Errorf("%s: speedup %.2fx out of band [%v, %v] (paper 1.9-2.7x)", row.Query, speed, lo, hi)
		}
	}
	// DBMS beats MapReduce clearly on the TPC-H queries...
	for _, row := range r.Rows[:3] {
		if row.PgSQL >= row.YSmart.Total {
			t.Errorf("%s: pgsql %.0fs should beat ysmart %.0fs on DSS workloads", row.Query, row.PgSQL, row.YSmart.Total)
		}
	}
	// ...but on Q-CSA YSmart is in the same ballpark (paper: "almost the
	// same execution time"). Accept within 3x either way.
	csa := r.Rows[3]
	ratio := csa.YSmart.Total / csa.PgSQL
	if ratio > 3 || ratio < 1.0/3 {
		t.Errorf("Q-CSA ysmart/pgsql ratio %.2f, want comparable", ratio)
	}
	if txt := r.Format(); !strings.Contains(txt, "pgsql") || !strings.Contains(txt, "Q-CSA") {
		t.Errorf("Format incomplete:\n%s", txt)
	}
}

// TestFig11Shape: near-linear scaling, compression hurts, YSmart always
// wins, and the Q-CSA panel shows the biggest gaps.
func TestFig11Shape(t *testing.T) {
	w := testWorkload(t)
	r, err := Fig11(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(r.Cells))
	}
	byKey := map[string]Fig11Cell{}
	for _, c := range r.Cells {
		if c.YSmart >= c.Hive {
			t.Errorf("%s w=%d c=%v: ysmart %.0fs not faster than hive %.0fs",
				c.Query, c.Workers, c.Compress, c.YSmart, c.Hive)
		}
		mode := "nc"
		if c.Compress {
			mode = "c"
		}
		byKey[c.Query+mode+string(rune('0'+c.Workers/100))] = c
	}
	for _, q := range []string{"Q17", "Q18", "Q21"} {
		// Compression degrades both systems (paper third conclusion).
		small, comp := byKey[q+"nc0"], byKey[q+"c0"]
		if comp.YSmart <= small.YSmart || comp.Hive <= small.Hive {
			t.Errorf("%s: compression should slow both systems", q)
		}
		// Near-linear scaling: 101-node time within 1.6x of the 11-node
		// time despite 10x data (paper: "almost unchanged").
		big := byKey[q+"nc1"]
		if big.YSmart > 1.6*small.YSmart {
			t.Errorf("%s: ysmart does not scale (%.0fs on 101 vs %.0fs on 11)", q, big.YSmart, small.YSmart)
		}
	}
	// Panel (d): Q-CSA speedups are larger than TPC-H ones and Pig trails.
	if r.QCSA.Pig.Total <= r.QCSA.Hive.Total {
		t.Error("Q-CSA: pig should be slowest (it ran out of disk in the paper)")
	}
	if sp := r.QCSA.Hive.Total / r.QCSA.YSmart.Total; sp < 2 {
		t.Errorf("Q-CSA speedup %.2fx, want > 2x (paper 4.87x)", sp)
	}
	if txt := r.Format(); !strings.Contains(txt, "nc") || !strings.Contains(txt, "Fig 11(d)") {
		t.Errorf("Format incomplete:\n%s", txt)
	}
}

// TestFig12And13Shape: contention preserves YSmart's advantage, and the
// chain-length effect makes busy-cluster speedups at least as large as
// isolated ones for Q21.
func TestFig12And13Shape(t *testing.T) {
	w := testWorkload(t)
	r12, err := Fig12(w)
	if err != nil {
		t.Fatal(err)
	}
	var ysAvg, hiveAvg float64
	for i := 0; i < 3; i++ {
		ysAvg += r12.YSmart[i].Total / 3
		hiveAvg += r12.Hive[i].Total / 3
	}
	if sp := hiveAvg / ysAvg; sp < 1.5 {
		t.Errorf("fig12 average speedup %.2fx, want >= 1.5x (paper 2.3-3.1x)", sp)
	}
	// Instances must differ (unpredictable dynamics), but all YSmart runs
	// beat all Hive runs.
	if r12.YSmart[0].Total == r12.YSmart[1].Total && r12.YSmart[1].Total == r12.YSmart[2].Total {
		t.Error("fig12 instances identical; contention seeds not applied")
	}

	r13, err := Fig13(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r13.Query {
		if r13.Speedup[i] < 1.5 {
			t.Errorf("fig13 %s speedup %.2fx, want >= 1.5x (paper ~3x)", r13.Query[i], r13.Speedup[i])
		}
	}
	// The Q21 speedup on the busy cluster should be at least the isolated
	// one (more jobs -> more scheduling gaps for Hive).
	iso, err := Fig10(w)
	if err != nil {
		t.Fatal(err)
	}
	var isoQ21 float64
	for _, row := range iso.Rows {
		if row.Query == "Q21" {
			isoQ21 = row.Hive.Total / row.YSmart.Total
		}
	}
	if r13.Speedup[1] < isoQ21*0.9 {
		t.Errorf("busy-cluster Q21 speedup %.2fx below isolated %.2fx", r13.Speedup[1], isoQ21)
	}
	if txt := r12.Format(); !strings.Contains(txt, "ysmart-1") {
		t.Errorf("Fig12 Format incomplete:\n%s", txt)
	}
	if txt := r13.Format(); !strings.Contains(txt, "Q18") || !strings.Contains(txt, "Q21") {
		t.Errorf("Fig13 Format incomplete:\n%s", txt)
	}
}

// TestFormats: every figure renders non-empty text mentioning the paper's
// reference numbers.
func TestFormats(t *testing.T) {
	w := testWorkload(t)
	r2, err := Fig2b(w)
	if err != nil {
		t.Fatal(err)
	}
	r9, err := Fig9(w)
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{
		"fig2b": r2.Format(),
		"fig9":  r9.Format(),
	} {
		if len(text) == 0 || !strings.Contains(text, "paper") {
			t.Errorf("%s format output missing paper reference:\n%s", name, text)
		}
	}
}

// TestAblationsShape: every removed design choice costs time, and the
// wrong partition key also costs jobs.
func TestAblationsShape(t *testing.T) {
	w := testWorkload(t)
	r, err := Ablations(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Time <= row.BaseTime {
			t.Errorf("%s: ablated %fs not slower than baseline %fs", row.Name, row.Time, row.BaseTime)
		}
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	if row := byName["pk-heuristic-off"]; row.Jobs <= row.Baseline {
		t.Errorf("pk ablation jobs = %d, want more than %d", row.Jobs, row.Baseline)
	}
	if row := byName["shared-scan-off"]; row.Jobs != row.Baseline {
		t.Errorf("shared-scan ablation should keep the job count (%d vs %d)", row.Jobs, row.Baseline)
	}
	if !strings.Contains(r.Format(), "pk-heuristic-off") {
		t.Error("Format incomplete")
	}
}

// TestScalingSweepShape: near-linear scaling across the whole sweep, with
// YSmart ahead at every size.
func TestScalingSweepShape(t *testing.T) {
	w := testWorkload(t)
	r, err := ScalingSweep(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(r.Points))
	}
	minYS, maxYS := r.Points[0].YSmart, r.Points[0].YSmart
	for _, p := range r.Points {
		if p.YSmart >= p.Hive {
			t.Errorf("%d workers: ysmart %.0fs not faster than hive %.0fs", p.Workers, p.YSmart, p.Hive)
		}
		if p.YSmart < minYS {
			minYS = p.YSmart
		}
		if p.YSmart > maxYS {
			maxYS = p.YSmart
		}
	}
	if maxYS > 1.5*minYS {
		t.Errorf("scaling not near-linear: ysmart times range %.0f-%.0fs", minYS, maxYS)
	}
	if !strings.Contains(r.Format(), "workers") {
		t.Error("Format incomplete")
	}
}

package experiments

import (
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ffc/internal/faults"
)

// tinyEnv keeps experiment tests fast.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewLNet(EnvConfig{Sites: 6, Intervals: 6, Seed: 1, TunnelsPerFlow: 4})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFig1aShapes(t *testing.T) {
	e := tinyEnv(t)
	series, err := Fig1a(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series, want 4 (1–3 links + 1 switch)", len(series))
	}
	// Oversubscription grows (in the mean) with the number of failures.
	if series[2].Dist.Mean() < series[0].Dist.Mean()-1e-9 {
		t.Fatalf("3-link mean %v below 1-link mean %v", series[2].Dist.Mean(), series[0].Dist.Mean())
	}
}

func TestFig1bShapes(t *testing.T) {
	e := tinyEnv(t)
	series, err := Fig1b(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series, want 3", len(series))
	}
}

func TestFig6Prints(t *testing.T) {
	var sb strings.Builder
	Fig6(&sb)
	out := sb.String()
	for _, want := range []string{"Realistic", "Optimistic", "per-rule", "10ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig12OverheadShapes(t *testing.T) {
	e := tinyEnv(t)
	rows, err := Fig12(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// 3 scales × 3 k for control + same for data + 3 scales for kv.
	if len(rows) != 9+9+3 {
		t.Fatalf("%d rows, want 21", len(rows))
	}
	byKey := map[string]Fig12Row{}
	for _, r := range rows {
		byKey[r.Plane+string(rune('0'+r.K))+"@"+ftoa(r.Scale)] = r
		if r.P50 < -1e-6 || r.P99 > 100+1e-6 {
			t.Fatalf("overhead out of range: %+v", r)
		}
		if r.P50 > r.P99+1e-9 {
			t.Fatalf("p50 > p99: %+v", r)
		}
	}
	// Paper shape: overhead grows with protection level at fixed scale.
	for _, plane := range []string{"control", "data"} {
		k1 := byKey[plane+"1@2"]
		k3 := byKey[plane+"3@2"]
		if k3.P90 < k1.P90-1e-6 {
			t.Fatalf("%s overhead not increasing in k at scale 2: k1 p90=%v k3 p90=%v", plane, k1.P90, k3.P90)
		}
	}
	// Paper shape: data-plane FFC at scale 0.5 is cheap (well-provisioned).
	if r := byKey["data1@0.5"]; r.P50 > 15 {
		t.Fatalf("data ke=1 overhead at scale 0.5 = %v%%, paper says low", r.P50)
	}
}

func ftoa(f float64) string {
	switch f {
	case 0.5:
		return "0.5"
	case 1:
		return "1"
	case 2:
		return "2"
	}
	return "x"
}

func TestTable2Ordering(t *testing.T) {
	e := tinyEnv(t)
	rows, err := Table2(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Non-FFC must be the cheapest; (3,3,0) at least as expensive as (2,1,0).
	if rows[2].MeanTime >= rows[1].MeanTime {
		t.Fatalf("non-FFC %v not cheaper than FFC(2,1,0) %v", rows[2].MeanTime, rows[1].MeanTime)
	}
	if rows[0].Cons <= rows[2].Cons {
		t.Fatal("FFC constraint counts should exceed non-FFC")
	}
}

func TestFig13SmallRun(t *testing.T) {
	e := tinyEnv(t)
	rows, err := Fig13(e, io.Discard, []faults.SwitchModel{faults.Optimistic()}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	// Carryover lets FFC serve deferred demand later, so the ratio can
	// legitimately nudge above 1.
	if r.ThroughputRatio <= 0 || r.ThroughputRatio > 1.05 {
		t.Fatalf("throughput ratio %v", r.ThroughputRatio)
	}
	if r.LossRatio > 1+1e-9 {
		t.Fatalf("FFC loss ratio %v > 1", r.LossRatio)
	}
}

func TestFig16Shapes(t *testing.T) {
	e := tinyEnv(t)
	res, err := Fig16(e, io.Discard, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d models", len(res))
	}
	for _, r := range res {
		if r.FFC.Percentile(50) > r.NonFFC.Percentile(50)+1e-9 {
			t.Fatalf("%s: FFC median %v above non-FFC %v", r.Model, r.FFC.Percentile(50), r.NonFFC.Percentile(50))
		}
	}
	// Realistic non-FFC updates have worse tails; when any stall at all
	// occurs it must hit the baseline at least as hard as FFC.
	real := res[0]
	if real.NonFFC.Percentile(99) < real.FFC.Percentile(99)-1e-9 {
		t.Fatalf("Realistic: non-FFC p99 %v below FFC %v",
			real.NonFFC.Percentile(99), real.FFC.Percentile(99))
	}
	if real.NonFFC.FractionAbove(299.9) < real.FFC.FractionAbove(299.9) {
		t.Fatalf("Realistic: FFC stalls (%v) above non-FFC (%v)",
			real.FFC.FractionAbove(299.9), real.NonFFC.FractionAbove(299.9))
	}
}

func TestAblationEncodingAgreement(t *testing.T) {
	e := tinyEnv(t)
	rows, err := AblationEncoding(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	// Full-env sortnet vs compact: same optimum, sortnet bigger.
	if diff := rows[0].Objective - rows[1].Objective; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("encodings disagree: %v vs %v", rows[0].Objective, rows[1].Objective)
	}
	if rows[0].Cons <= rows[1].Cons {
		t.Fatalf("sortnet (%d cons) should exceed compact (%d cons)", rows[0].Cons, rows[1].Cons)
	}
	// The literal Eqn 5/9 enumeration dwarfs the reduced encodings.
	if rows[3].Cons <= 10*rows[0].Cons {
		t.Fatalf("literal naive (%d cons) should dwarf sortnet (%d cons)", rows[3].Cons, rows[0].Cons)
	}
	// Small-env: all three agree.
	small := rows[4:]
	for _, r := range small[1:] {
		if diff := r.Objective - small[0].Objective; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("small-env encodings disagree: %+v vs %+v", r, small[0])
		}
	}
}

func TestAblationTunnels(t *testing.T) {
	e := tinyEnv(t)
	rows, err := AblationTunnels(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	disjoint, kshort := rows[0], rows[1]
	if disjoint.MeanP > 1+1e-9 {
		t.Fatalf("disjoint layout mean p = %v, want ≤ 1", disjoint.MeanP)
	}
	if kshort.MeanP < disjoint.MeanP {
		t.Fatal("k-shortest should share links at least as much")
	}
}

func TestFig11Timelines(t *testing.T) {
	var sb strings.Builder
	if err := Fig11(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"(a) FFC", "(b) non-FFC", "link-failure", "rescaled", "loss-stop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig11 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2to5Walkthrough(t *testing.T) {
	var sb strings.Builder
	if err := Fig2to5(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The 10/7/4 series must appear.
	for _, want := range []string{"0   10", "1   7", "2   4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2to5 missing %q:\n%s", want, out)
		}
	}
}

func TestSNetEnvBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("S-Net env is slow")
	}
	e, err := NewSNet(EnvConfig{Intervals: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "S-Net" || e.Scale1 <= 0 {
		t.Fatalf("bad env: %+v", e.Name)
	}
}

func TestAblationRescalingSandwich(t *testing.T) {
	e := tinyEnv(t)
	rows, err := AblationRescaling(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	plain, perCase, ffc := rows[0].Throughput, rows[1].Throughput, rows[2].Throughput
	if !(ffc <= perCase+1e-5 && perCase <= plain+1e-5) {
		t.Fatalf("sandwich violated: ffc %v, per-case %v, plain %v", ffc, perCase, plain)
	}
	if ffc <= 0 {
		t.Fatal("FFC got nothing")
	}
}

// TestFiguresParallelMatchSerial reruns the sharded figures at one and at
// eight GOMAXPROCS and requires byte-identical results: per-interval RNG
// derivation and in-order reductions make worker count invisible. It pins
// GOMAXPROCS, so it must not run in parallel.
func TestFiguresParallelMatchSerial(t *testing.T) {
	e := tinyEnv(t)
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	a1, err := Fig1a(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := Fig1b(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Fig12(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	a8, err := Fig1a(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := Fig1b(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Fig12(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a8) {
		t.Fatal("Fig1a differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(b1, b8) {
		t.Fatal("Fig1b differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("Fig12 differs between 1 and 8 workers")
	}
}

package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := d.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := d.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 50.5", got)
	}
	if got := d.Percentile(90); math.Abs(got-90.1) > 1e-9 {
		t.Fatalf("p90 = %v, want 90.1", got)
	}
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	var d Dist
	if d.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	d.Add(7)
	for _, p := range []float64{0, 50, 100} {
		if d.Percentile(p) != 7 {
			t.Fatalf("single-sample percentile %v != 7", p)
		}
	}
}

func TestMeanSumMax(t *testing.T) {
	var d Dist
	d.Add(1)
	d.Add(3)
	d.Add(2)
	d.Add(2)
	if d.Sum() != 8 || d.N() != 4 || d.Mean() != 2 || d.Max() != 3 {
		t.Fatalf("sum=%v n=%v mean=%v max=%v", d.Sum(), d.N(), d.Mean(), d.Max())
	}
}

func TestCDFMonotone(t *testing.T) {
	var d Dist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		d.Add(rng.NormFloat64())
	}
	pts := d.CDF(50)
	if len(pts) != 50 {
		t.Fatalf("%d points, want 50", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF not monotone")
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("CDF must end at 1, got %v", pts[len(pts)-1].Y)
	}
}

func TestFractionAbove(t *testing.T) {
	var d Dist
	for _, v := range []float64{1, 2, 3, 4} {
		d.Add(v)
	}
	if got := d.FractionAbove(2); got != 0.5 {
		t.Fatalf("FractionAbove(2) = %v, want 0.5", got)
	}
	if got := d.FractionAbove(0); got != 1 {
		t.Fatalf("FractionAbove(0) = %v, want 1", got)
	}
	if got := d.FractionAbove(4); got != 0 {
		t.Fatalf("FractionAbove(4) = %v, want 0", got)
	}
}

// Property: percentile is monotone in p and bracketed by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		var d Dist
		for _, v := range raw {
			d.Add(v)
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev || v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", 1.25)
	tb.Row("beta-long-name", 0.333333)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[2], "1.25") {
		t.Fatalf("unexpected render:\n%s", out)
	}
	// All rows align: same prefix width before second column.
	if !strings.Contains(lines[3], "0.3333") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
}

func TestRenderCDF(t *testing.T) {
	out := RenderCDF("test", []CDFPoint{{1, 0.5}, {2, 1}})
	if !strings.Contains(out, "# series: test") || !strings.Contains(out, "2 1.0000") {
		t.Fatalf("bad render:\n%s", out)
	}
}

func TestSafeRatio(t *testing.T) {
	if SafeRatio(4, 2, 9) != 2 {
		t.Fatal("ratio wrong")
	}
	if SafeRatio(4, 0, 9) != 9 {
		t.Fatal("default not used")
	}
}

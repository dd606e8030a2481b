package faults

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"ffc/internal/topology"
)

func TestLatencyModelQuantiles(t *testing.T) {
	m := NewLatencyModel(
		[]float64{0, 0.5, 1},
		[]time.Duration{0, 100 * time.Millisecond, time.Second})
	if m.Quantile(0) != 0 {
		t.Fatalf("q0 = %v", m.Quantile(0))
	}
	if m.Quantile(0.5) != 100*time.Millisecond {
		t.Fatalf("median = %v", m.Quantile(0.5))
	}
	if m.Quantile(1) != time.Second {
		t.Fatalf("q1 = %v", m.Quantile(1))
	}
	// Interpolation: q=0.25 is halfway between 0 and 100ms.
	if got := m.Quantile(0.25); got != 50*time.Millisecond {
		t.Fatalf("q0.25 = %v, want 50ms", got)
	}
	// Monotone.
	prev := time.Duration(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		v := m.Quantile(p)
		if v < prev {
			t.Fatalf("quantile not monotone at %v", p)
		}
		prev = v
	}
}

func TestLatencyModelMalformedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for malformed model")
		}
	}()
	NewLatencyModel([]float64{0, 0.6}, []time.Duration{0, 1})
}

func TestSamplingMatchesQuantiles(t *testing.T) {
	m := Realistic().PerRule
	rng := rand.New(rand.NewSource(1))
	n := 20000
	var below float64
	med := m.Quantile(0.5)
	for i := 0; i < n; i++ {
		if m.Sample(rng) <= med {
			below++
		}
	}
	frac := below / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("fraction below median = %v, want ≈ 0.5", frac)
	}
}

func TestRealisticVsOptimisticShape(t *testing.T) {
	r, o := Realistic(), Optimistic()
	if r.PerRule.Quantile(0.5) <= o.PerRule.Quantile(0.5) {
		t.Fatal("Realistic per-rule median must exceed Optimistic")
	}
	if o.ConfigFailureRate != 0 {
		t.Fatal("Optimistic must have no config failures")
	}
	if r.ConfigFailureRate != 0.01 {
		t.Fatalf("Realistic failure rate %v, want 0.01 (the paper's 1%%)", r.ConfigFailureRate)
	}
	// §2.3: Optimistic per-rule median 10 ms, worst case ~hundreds of ms.
	if o.PerRule.Quantile(0.5) != 10*time.Millisecond {
		t.Fatalf("Optimistic per-rule median %v, want 10ms", o.PerRule.Quantile(0.5))
	}
	if o.PerRule.Quantile(1) < 200*time.Millisecond {
		t.Fatalf("Optimistic worst case %v, want ≥ 200ms", o.PerRule.Quantile(1))
	}
}

func TestSampleUpdateAdditiveModel(t *testing.T) {
	m := Optimistic()
	rng := rand.New(rand.NewSource(2))
	// With 100 rules at ≥2ms each, total must exceed 200ms and typically
	// land near 100 × median = 1s (§2.3's arithmetic).
	var sum time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		d, failed := m.SampleUpdate(rng)
		if failed {
			t.Fatal("Optimistic update failed; failure rate is 0")
		}
		if d < 200*time.Millisecond {
			t.Fatalf("update %v implausibly fast for 100 rules", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 500*time.Millisecond || mean > 5*time.Second {
		t.Fatalf("mean update %v outside the §2.3 ballpark (~1-2s)", mean)
	}
}

func TestRealisticUpdatesSometimesFail(t *testing.T) {
	m := Realistic()
	rng := rand.New(rand.NewSource(3))
	fails := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if _, failed := m.SampleUpdate(rng); failed {
			fails++
		}
	}
	rate := float64(fails) / n
	if rate < 0.005 || rate > 0.02 {
		t.Fatalf("observed failure rate %v, want ≈ 0.01", rate)
	}
}

func TestFailureModelRate(t *testing.T) {
	net := topology.SNet()
	m := LNetFailures()
	rng := rand.New(rand.NewSource(4))
	const intervals = 30000
	linkFails, switchFails := 0, 0
	for i := 0; i < intervals; i++ {
		for _, f := range m.SampleInterval(net, rng) {
			switch f.Kind {
			case LinkFailure:
				linkFails++
			case SwitchFailure:
				switchFails++
			}
		}
	}
	// Expected: one link failure per 30 min = per 6 intervals.
	wantLink := float64(intervals) / 6
	if math.Abs(float64(linkFails)-wantLink) > 0.15*wantLink {
		t.Fatalf("link failures %d, want ≈ %v", linkFails, wantLink)
	}
	wantSwitch := float64(intervals) * (5.0 / 360.0)
	if math.Abs(float64(switchFails)-wantSwitch) > 0.25*wantSwitch {
		t.Fatalf("switch failures %d, want ≈ %v", switchFails, wantSwitch)
	}
}

func TestFaultFieldsValid(t *testing.T) {
	net := topology.Testbed()
	m := LNetFailures()
	m.LinkMTBF = time.Minute // crank the rate for coverage
	rng := rand.New(rand.NewSource(5))
	seen := 0
	for i := 0; i < 200; i++ {
		for _, f := range m.SampleInterval(net, rng) {
			seen++
			if f.At < 0 || f.At > m.Interval {
				t.Fatalf("fault time %v outside interval", f.At)
			}
			if f.DownFor < m.MinDown || f.DownFor > m.MaxDown {
				t.Fatalf("DownFor %d outside [%d,%d]", f.DownFor, m.MinDown, m.MaxDown)
			}
			if f.Kind == LinkFailure {
				l := net.Links[f.Link]
				if l.Twin != topology.None && l.Twin < f.Link {
					t.Fatal("link fault not on canonical direction")
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no faults sampled at 1-minute MTBF")
	}
}

func TestDeterministicSampling(t *testing.T) {
	net := topology.Testbed()
	m := LNetFailures()
	a := m.SampleInterval(net, rand.New(rand.NewSource(9)))
	b := m.SampleInterval(net, rand.New(rand.NewSource(9)))
	if len(a) != len(b) {
		t.Fatal("nondeterministic fault sampling")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic fault sampling")
		}
	}
}

func TestMeanEstimate(t *testing.T) {
	m := NewLatencyModel([]float64{0, 1}, []time.Duration{0, time.Second})
	mean := m.Mean()
	if mean < 490*time.Millisecond || mean > 510*time.Millisecond {
		t.Fatalf("uniform mean %v, want ≈ 500ms", mean)
	}
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[int64]bool{}
	for base := int64(0); base < 4; base++ {
		for shard := int64(0); shard < 256; shard++ {
			s := DeriveSeed(base, shard)
			if seen[s] {
				t.Fatalf("seed collision at base=%d shard=%d", base, shard)
			}
			seen[s] = true
		}
	}
	// Seed 0 must be usable: shards of base 0 still get distinct streams.
	if DeriveSeed(0, 0) == DeriveSeed(0, 1) {
		t.Fatal("base-0 shards collide")
	}
}

package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// coldCalibrateScale is CalibrateScale as it was before calibration ran on
// warm sessions: every bracket and bisection step solves every sample from
// scratch. It is kept only as the oracle the warm bisection must reproduce
// bit for bit.
func coldCalibrateScale(solver *core.Solver, series demand.Series, target float64, samples int) (float64, error) {
	if target <= 0 || target >= 1 {
		target = 0.99
	}
	if samples <= 0 || samples > len(series) {
		samples = len(series)
	}
	if samples > 5 {
		samples = 5
	}
	stride := len(series) / samples
	if stride == 0 {
		stride = 1
	}
	var sample []demand.Matrix
	for i := 0; i < len(series) && len(sample) < samples; i += stride {
		sample = append(sample, series[i])
	}

	satisfied := func(scale float64) (float64, error) {
		var granted, offered float64
		for _, m := range sample {
			scaled := m.Scale(scale)
			st, _, err := solver.Solve(core.Input{Demands: scaled})
			if err != nil {
				return 0, err
			}
			granted += st.TotalRate()
			offered += scaled.Total()
		}
		if offered == 0 {
			return 1, nil
		}
		return granted / offered, nil
	}

	lo, hi := 0.0, 1.0
	for iter := 0; ; iter++ {
		s, err := satisfied(hi)
		if err != nil {
			return 0, err
		}
		if s < target {
			break
		}
		lo = hi
		hi *= 2
		if iter > 40 {
			return 0, fmt.Errorf("sim: calibration failed to bracket (satisfaction stays ≥ %v)", target)
		}
	}
	for iter := 0; iter < 20; iter++ {
		mid := (lo + hi) / 2
		s, err := satisfied(mid)
		if err != nil {
			return 0, err
		}
		if s >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// lpCounts reads the process-wide solve counters (they count whether or not
// obs is enabled).
func lpCounts() (solves, warm, fellBack int64) {
	r := obs.Default()
	return r.Counter("lp.solves").Value(), r.Counter("lp.warm_solves").Value(), r.Counter("lp.warm_fallbacks").Value()
}

type calibrationCase struct {
	name    string
	solver  *core.Solver
	series  demand.Series
	samples int
}

// benchmarkCalibration mirrors the benchmark's instances: the 8-site L-Net
// of topology seed 1 (or S-Net), the gravity base of seed 8 with a 5 %
// lognormal drift drawn from seed, (1,3)-disjoint tunnels, Compact.
func benchmarkCalibration(kind string, seed int64, intervals int) calibrationCase {
	net := topology.SNet()
	if kind == "lnet" {
		net = topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
	}
	series := demand.Generate(net, demand.Config{Intervals: intervals, NoiseSigma: 1e-12}, rand.New(rand.NewSource(8)))
	rng := rand.New(rand.NewSource(seed))
	for _, m := range series {
		for _, f := range m.Flows() {
			m[f] *= math.Exp(rng.NormFloat64() * 0.05)
		}
	}
	set := tunnel.Layout(net, series.Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
	return calibrationCase{
		name:    fmt.Sprintf("%s/seed%d", kind, seed),
		solver:  core.NewSolver(net, set, core.Options{Encoding: core.Compact}),
		series:  series,
		samples: 3,
	}
}

// plainCalibration draws a default gravity series on net and lays out
// default tunnels.
func plainCalibration(name string, net *topology.Network, opts core.Options, intervals, samples int, rng *rand.Rand) calibrationCase {
	series := demand.Generate(net, demand.Config{Intervals: intervals}, rng)
	set := tunnel.Layout(net, series.Flows(), tunnel.LayoutConfig{})
	return calibrationCase{name: name, solver: core.NewSolver(net, set, opts), series: series, samples: samples}
}

// TestCalibrateScaleMatchesColdOracle: the warm-session bisection returns
// the cold bisection's scale bit for bit, and every solve but each sample's
// first re-solves from the held basis without falling back.
func TestCalibrateScaleMatchesColdOracle(t *testing.T) {
	var cases []calibrationCase
	for seed := int64(1); seed <= 10; seed++ {
		cases = append(cases, benchmarkCalibration("lnet", seed, 8))
	}
	cases = append(cases,
		benchmarkCalibration("snet", 1, 4),
		plainCalibration("fattree-4", topology.FatTree(4, 10), core.Options{}, 4, 3, rand.New(rand.NewSource(1))),
		plainCalibration("testbed", topology.Testbed(), core.Options{}, 4, 3, rand.New(rand.NewSource(1))),
		// topogen's calibration: mice on, which disables the template, so
		// each step re-formulates and the held basis carries by dimensions.
		plainCalibration("lnet-mice", topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(faults.DeriveSeed(1, 0)))),
			core.Options{MiceFraction: 0.01}, 3, 2, rand.New(rand.NewSource(faults.DeriveSeed(1, 1)))),
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s0, _, _ := lpCounts()
			want, err := coldCalibrateScale(c.solver, c.series, 0.99, c.samples)
			if err != nil {
				t.Fatalf("cold oracle: %v", err)
			}
			s1, w1, f1 := lpCounts()
			got, err := core.CalibrateScale(c.solver, c.series, 0.99, c.samples)
			if err != nil {
				t.Fatalf("warm calibration: %v", err)
			}
			s2, w2, f2 := lpCounts()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("warm scale %v != cold scale %v (relative difference %.3g)", got, want, (got-want)/want)
			}
			solves, warm, fellBack := s2-s1, w2-w1, f2-f1
			if solves != s1-s0 {
				t.Fatalf("warm bisection ran %d solves, the cold one %d", solves, s1-s0)
			}
			if warm != solves-int64(c.samples) || fellBack != 0 {
				t.Fatalf("%d solves: %d warm, %d fell back; want %d warm and none falling back",
					solves, warm, fellBack, solves-int64(c.samples))
			}
			t.Logf("scale %v in %d solves, %d warm", got, solves, warm)
		})
	}
}

// TestCalibrateScaleRejectsDegenerateSeries: no interval, or no demand in
// any sampled interval, is an error up front — not a divide-by-zero panic
// and not 42 doublings ending in a misleading bracket failure.
func TestCalibrateScaleRejectsDegenerateSeries(t *testing.T) {
	c := plainCalibration("testbed", topology.Testbed(), core.Options{}, 4, 3, rand.New(rand.NewSource(1)))
	zero := make(demand.Series, len(c.series))
	for i, m := range c.series {
		zero[i] = m.Scale(0)
	}
	for _, tc := range []struct {
		name   string
		series demand.Series
		want   string
	}{
		{"empty", nil, "at least one demand interval"},
		{"all-zero", zero, "offer no demand"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s0, _, _ := lpCounts()
			k, err := core.CalibrateScale(c.solver, tc.series, 0.99, 3)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("scale %v, err %v; want an error mentioning %q", k, err, tc.want)
			}
			if s1, _, _ := lpCounts(); s1 != s0 {
				t.Fatalf("rejected series still ran %d solves", s1-s0)
			}
		})
	}
}

package ffc

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/experiments"
	"ffc/internal/sim"
)

// S-Net environment for the warm-start measurements (the paper's 12-site
// inter-datacenter WAN), shared across benchmarks like getBenchEnv.
var (
	snetEnvOnce sync.Once
	snetEnv     *experiments.Env
	snetEnvErr  error
)

func getSNetEnv(tb testing.TB) *experiments.Env {
	snetEnvOnce.Do(func() {
		snetEnv, snetEnvErr = experiments.NewSNet(experiments.EnvConfig{Intervals: 8})
	})
	if snetEnvErr != nil {
		tb.Fatal(snetEnvErr)
	}
	return snetEnv
}

// driftSeries builds the re-solve workload on e: a fresh demand series at
// the paper's 5-minute TE cadence with a modest per-interval drift
// (σ = 5% lognormal noise on top of the diurnal cycle), scaled so interval 0
// carries the same total load as the calibrated experiment series. This is
// the regime warm starting targets — frequent re-solves under drift — as
// opposed to the coarse high-noise snapshots the fault experiments use.
func driftSeries(e *experiments.Env, intervals int) demand.Series {
	gen := demand.Generate(e.Net, demand.Config{Intervals: intervals, NoiseSigma: 0.05}, rand.New(rand.NewSource(61)))
	ref := sim.ScaleSeries(e.Series, e.Scale1)[0].Total()
	return sim.ScaleSeries(gen, ref/gen[0].Total())
}

// resolveSeries is driftSeries on the shared S-Net environment.
func resolveSeries(tb testing.TB, intervals int) demand.Series {
	return driftSeries(getSNetEnv(tb), intervals)
}

// resolveChain solves the chain at ke=2 serially on e and returns
// per-interval objectives plus total simplex iterations over the re-solves
// (interval 0, the unavoidable cold build, is excluded from the iteration
// count for both modes). Mice classification is disabled: it re-buckets
// flows by demand every interval, which changes the LP's column set and
// would force a rebuild (and warm-start fallback) even when nothing
// structural changed.
func resolveChain(tb testing.TB, e *experiments.Env, series demand.Series, warm bool) (objs []float64, iters, phase1 int) {
	opts := e.Opts
	opts.MiceFraction = 0
	solver := core.NewSolver(e.Net, e.Tun, opts)
	solve := solver.Solve
	if warm {
		solve = solver.NewSession().Solve
	}
	for t, dem := range series {
		st, stats, err := solve(core.Input{Demands: dem, Prot: core.Protection{Ke: 2}})
		if err != nil {
			tb.Fatalf("interval %d: %v", t, err)
		}
		objs = append(objs, st.TotalRate())
		if t > 0 {
			iters += stats.Iters
			phase1 += stats.LP.Phase1Iters
		}
	}
	return objs, iters, phase1
}

// TestWarmResolveIterationSavingsLNet is the acceptance gate for the warm
// start: across a 6-interval, 5%-drift L-Net re-solve chain, warm re-solves
// must reach the same optima as cold ones in at most half the simplex
// iterations. (L-Net keeps the gate to seconds; the S-Net chain is
// BenchmarkResolveWarmVsCold.)
func TestWarmResolveIterationSavingsLNet(t *testing.T) {
	if testing.Short() {
		t.Skip("re-solve chain is slow; skipped with -short")
	}
	e, err := experiments.NewLNet(experiments.EnvConfig{Intervals: 8})
	if err != nil {
		t.Fatal(err)
	}
	series := driftSeries(e, 6)
	coldObjs, coldIters, _ := resolveChain(t, e, series, false)
	warmObjs, warmIters, warmP1 := resolveChain(t, e, series, true)
	for i := range coldObjs {
		if d := math.Abs(coldObjs[i] - warmObjs[i]); d > 1e-6*(1+coldObjs[i]) {
			t.Fatalf("interval %d: warm objective %g != cold %g", i, warmObjs[i], coldObjs[i])
		}
	}
	if coldIters == 0 {
		t.Fatal("cold chain reported zero iterations")
	}
	if 2*warmIters > coldIters {
		t.Fatalf("warm re-solves used %d iterations vs %d cold — less than the required 2x reduction", warmIters, coldIters)
	}
	// Demand drift moves bounds and right-hand sides only, so every re-solve
	// keeps its basis and the dual simplex leaves no Phase I work.
	if warmP1 != 0 {
		t.Fatalf("warm re-solves spent %d iterations in Phase I", warmP1)
	}
	t.Logf("re-solve iterations: cold %d, warm %d (%.1fx, warm phase1 %d)",
		coldIters, warmIters, float64(coldIters)/float64(warmIters), warmP1)
}

// BenchmarkResolveWarmVsCold times one full S-Net re-solve chain per op,
// cold versus warm-started, and reports the simplex iterations spent on the
// re-solves as a metric so the work reduction shows, not just wall clock.
func BenchmarkResolveWarmVsCold(b *testing.B) {
	e := getSNetEnv(b)
	series := resolveSeries(b, 6)
	for _, mode := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ResetTimer()
			var iters, phase1 int
			for i := 0; i < b.N; i++ {
				_, it, p1 := resolveChain(b, e, series, mode.warm)
				iters, phase1 = it, p1
			}
			b.ReportMetric(float64(iters), "iters/chain")
			b.ReportMetric(float64(phase1), "phase1/chain")
		})
	}
}

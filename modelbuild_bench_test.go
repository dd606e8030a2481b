package ffc

import (
	"testing"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
)

// modelBuildSolver is the S-Net solver the model-build measurements run on:
// mice classification off (it re-buckets flows by demand every interval,
// changing the column set and making no interval template-reusable), same
// as the warm-start chain in warm_bench_test.go.
func modelBuildSolver(tb testing.TB) *core.Solver {
	e := getSNetEnv(tb)
	opts := e.Opts
	opts.MiceFraction = 0
	return core.NewSolver(e.Net, e.Tun, opts)
}

// buildChain constructs every re-build interval's model (interval 0 is the
// unavoidable cold build either way and is excluded): cold formulates from
// scratch each time, warm freezes one ModelTemplate and re-instantiates it
// by rewriting bounds/RHS/objective coefficients in place. Returns the time
// spent on the re-build intervals.
func buildChain(tb testing.TB, solver *core.Solver, series demand.Series, warm bool) time.Duration {
	tb.Helper()
	in := func(i int) core.Input {
		return core.Input{Demands: series[i], Prot: core.Protection{Ke: 2}}
	}
	if !warm {
		var elapsed time.Duration
		for i := 1; i < len(series); i++ {
			t0 := time.Now()
			if _, err := solver.NewTemplate(in(i)); err != nil {
				tb.Fatalf("interval %d: %v", i, err)
			}
			elapsed += time.Since(t0)
		}
		return elapsed
	}
	tmpl, err := solver.NewTemplate(in(0))
	if err != nil {
		tb.Fatal(err)
	}
	var elapsed time.Duration
	for i := 1; i < len(series); i++ {
		t0 := time.Now()
		if err := tmpl.Instantiate(in(i)); err != nil {
			tb.Fatalf("interval %d: %v", i, err)
		}
		elapsed += time.Since(t0)
	}
	return elapsed
}

// TestModelBuildTemplateSpeedupSNet is the acceptance gate for the
// formulation cache: across the S-Net re-build chain, instantiating the
// frozen template must be at least 2x faster per interval than formulating
// from scratch. (In practice the gap is orders of magnitude — instantiate
// touches only bounds and RHS — so the 2x floor is safe against timer
// noise.) Bit-identity of the resulting models and solutions is asserted
// separately in internal/core's template equivalence suite.
func TestModelBuildTemplateSpeedupSNet(t *testing.T) {
	if testing.Short() {
		t.Skip("S-Net chain is slow; skipped with -short")
	}
	series := resolveSeries(t, 6)
	solver := modelBuildSolver(t)
	cold := buildChain(t, solver, series, false)
	warm := buildChain(t, solver, series, true)
	if warm <= 0 {
		warm = time.Nanosecond
	}
	if 2*warm > cold {
		t.Fatalf("template instantiate took %v vs %v scratch — less than the required 2x speedup", warm, cold)
	}
	t.Logf("model build over %d intervals: scratch %v, template %v (%.1fx)",
		len(series)-1, cold, warm, float64(cold)/float64(warm))
}

// BenchmarkModelBuildWarmVsCold times one S-Net model-construction chain
// per op — every interval formulated from scratch (cold) versus one frozen
// ModelTemplate re-instantiated per interval (warm). The warm/cold ns/op
// ratio is the formulation cache's payoff.
func BenchmarkModelBuildWarmVsCold(b *testing.B) {
	series := resolveSeries(b, 6)
	solver := modelBuildSolver(b)
	for _, mode := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildChain(b, solver, series, mode.warm)
			}
		})
	}
}

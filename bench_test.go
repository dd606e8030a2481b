package ffc

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark drives the
// same code path as `ffcbench -exp <id>` on a compact environment so the
// whole suite completes in minutes; the CLI runs the full-size versions.

import (
	"io"
	"sync"
	"testing"

	"ffc/internal/core"
	"ffc/internal/experiments"
	"ffc/internal/faults"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

func getBenchEnv(b *testing.B) *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewLNet(experiments.EnvConfig{
			Sites: 6, Intervals: 6, Seed: 1, TunnelsPerFlow: 4,
		})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func BenchmarkFig1aDataFaultOversubscription(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1a(e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1bControlFaultOversubscription(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1b(e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6UpdateLatencyModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(io.Discard)
	}
}

func BenchmarkFig11TestbedTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig11(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ThroughputOverhead(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2ComputationTime measures single TE solves per
// configuration — the direct analogue of the paper's Table 2 cells.
func BenchmarkTable2ComputationTime(b *testing.B) {
	e := getBenchEnv(b)
	series := e.Series.Scale(e.Scale1)
	solver := core.NewSolver(e.Net, e.Tun, e.Opts)
	prev, _, err := solver.Solve(core.Input{Demands: series[0]})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		prot core.Protection
	}{
		{"FFC_330", core.Protection{Kc: 3, Ke: 3}},
		{"FFC_210", core.Protection{Kc: 2, Ke: 1}},
		{"NonFFC", core.None},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := core.Input{Demands: series[1], Prot: tc.prot}
				if tc.prot.Kc > 0 {
					in.Prev = prev
				}
				if _, _, err := solver.Solve(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig13SinglePriority(b *testing.B) {
	e := getBenchEnv(b)
	models := []faults.SwitchModel{faults.Optimistic()}
	scales := []float64{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(e, io.Discard, models, scales); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14MultiPriority(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(e, io.Discard, faults.Optimistic()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15Tradeoff(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(e, io.Discard, []float64{1}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16CongestionFreeUpdates(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(e, io.Discard, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEncodings(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEncoding(e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTunnelLayout(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTunnels(e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the core computation, per encoding.

func benchSolve(b *testing.B, enc core.Encoding, prot core.Protection) {
	e := getBenchEnv(b)
	opts := e.Opts
	opts.Encoding = enc
	solver := core.NewSolver(e.Net, e.Tun, opts)
	series := e.Series.Scale(e.Scale1)
	prev, _, err := solver.Solve(core.Input{Demands: series[0]})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := core.Input{Demands: series[1], Prot: prot}
		if prot.Kc > 0 {
			in.Prev = prev
		}
		if _, _, err := solver.Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePlainTE(b *testing.B) { benchSolve(b, core.SortNet, core.None) }
func BenchmarkSolveFFCSortNet(b *testing.B) {
	benchSolve(b, core.SortNet, core.Protection{Kc: 2, Ke: 1})
}
func BenchmarkSolveFFCCompact(b *testing.B) {
	benchSolve(b, core.Compact, core.Protection{Kc: 2, Ke: 1})
}

func BenchmarkControllerEndToEnd(b *testing.B) {
	net := Example4Topology()
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	f24, f34 := Flow{Src: s2, Dst: s4}, Flow{Src: s3, Dst: s4}
	ctl, err := NewController(net, []Flow{f24, f34}, ControllerConfig{TunnelsPerFlow: 2})
	if err != nil {
		b.Fatal(err)
	}
	d := Demands{f24: 14, f34: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err := ctl.Compute(d, Protection{Ke: 1})
		if err != nil {
			b.Fatal(err)
		}
		ctl.Install(st)
	}
}

func BenchmarkAblationRescaling(b *testing.B) {
	e := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRescaling(e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

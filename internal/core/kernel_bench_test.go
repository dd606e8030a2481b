package core

import (
	"math/rand"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Benchmarks of the solve regimes a controller pays for, beside
// internal/lp's BenchmarkWarmResolveZeroPivot: the cold solve of ffcd's
// default LP and the calibration every run starts with. Run them with
// go test -run '^$' -bench 'ColdSolve|CalibrateScale' ./internal/core.

// kernelFixture lays out 6 (1,3) tunnels per flow of net over a 4-interval
// gravity series, as ffcd and the benchmark workloads do.
func kernelFixture(net *topology.Network) (*tunnel.Set, demand.Series) {
	series := demand.Generate(net, demand.Config{Intervals: 4, NoiseSigma: 0.05}, rand.New(rand.NewSource(1)))
	set := tunnel.Layout(net, series[0].Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
	return set, series
}

// BenchmarkColdSolveLNet021 solves the LP ffcd solves at its defaults —
// (0,2,1), mice on, Compact encoding — on a calibrated 8-site L-Net, cold:
// the shape of its boot and link-down solves.
func BenchmarkColdSolveLNet021(b *testing.B) {
	net := topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
	set, series := kernelFixture(net)
	scale, err := CalibrateScale(NewSolver(net, set, Options{}), series, 0.99, 3)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSolver(net, set, Options{MiceFraction: 0.01})
	in := Input{Demands: series[0].Scale(scale), Prot: Protection{Ke: 2, Kv: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrateScaleSNet calibrates plain TE on S-Net over 3 sample
// intervals: one session per sample, each solved cold once and warm after.
func BenchmarkCalibrateScaleSNet(b *testing.B) {
	net := topology.SNet()
	set, series := kernelFixture(net)
	s := NewSolver(net, set, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CalibrateScale(s, series, 0.99, 3); err != nil {
			b.Fatal(err)
		}
	}
}

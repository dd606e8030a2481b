package ctrl

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

var (
	churnOnce sync.Once
	churnFx   struct {
		net    *topology.Network
		series demand.Series
		err    error
	}
)

// churnDemands returns the seed-1 8-site L-Net and the demand redraws its
// ffcd-churn lap streams: the seed-8 gravity base with a seed-1 5 %
// lognormal drift, calibrated so plain TE carries 99 % of it.
func churnDemands(tb testing.TB) (*topology.Network, demand.Series) {
	tb.Helper()
	churnOnce.Do(func() {
		net := topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
		series := demand.Generate(net, demand.Config{Intervals: 21, NoiseSigma: 1e-12}, rand.New(rand.NewSource(8)))
		rng := rand.New(rand.NewSource(1))
		for _, m := range series {
			for _, f := range m.Flows() {
				m[f] *= math.Exp(rng.NormFloat64() * 0.05)
			}
		}
		set := tunnel.Layout(net, series.Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
		scale, err := core.CalibrateScale(core.NewSolver(net, set, core.Options{}), series, 0.99, 3)
		churnFx.net, churnFx.series, churnFx.err = net, series.Scale(scale), err
	})
	if churnFx.err != nil {
		tb.Fatal(churnFx.err)
	}
	return churnFx.net, churnFx.series
}

// BenchmarkWarmUpdate is ffcd's warm demand update in process, with no
// TCP: a Controller on the seed-1 8-site L-Net at ffcd's defaults (ke 2,
// kv 1, six (1,3)-disjoint tunnels a flow, 1 % mice) applies each of the
// churn's demand redraws as one wire update and recomputes once — solve,
// certify, install. One op is one update.
func BenchmarkWarmUpdate(b *testing.B) {
	net, series := churnDemands(b)
	c, err := New(Config{
		Net: net, Demands: series[0], Prot: core.Protection{Ke: 2, Kv: 1},
		Layout:   tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3},
		Opts:     core.Options{MiceFraction: 0.01},
		Interval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	updates := make([]*wire.Update, len(series)-1)
	for i, m := range series[1:] {
		updates[i] = &wire.Update{Op: wire.UpdateDemands, Demands: wire.EncodeDemands(net, m).Demands}
	}
	c.recompute() // the cold first solve
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Apply(updates[i%len(updates)]); err != nil {
			b.Fatal(err)
		}
		c.recompute()
	}
	b.StopTimer()
	if p := c.GetPlan(); p.Seq != int64(b.N)+1 || p.Degraded != "" {
		b.Fatalf("plan seq %d degraded %q after %d updates", p.Seq, p.Degraded, b.N)
	}
}

package check

// BenchmarkCertSNet measures certifying the saturated S-Net ke=2/kv=1
// plan — the dominant cost of running ffccheck over a recorded trace or
// of ffcd's certification on install. It resolves every pruned fault
// combination and reports, like BenchmarkCertLNet, the cost per case and
// the cases evaluated rather than dismissed by a node bound.

import (
	"testing"

	"ffc/internal/core"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

func BenchmarkCertSNet(b *testing.B) {
	net, set, _, st := snetPlan(b)
	b.Run("exact", func(b *testing.B) {
		benchExact(b, net, set, st, Params{Prot: snetProt})
	})
}

// BenchmarkCertLNet certifies the benchmark's L-Net plans exactly and
// reports the cost per resolved case and the cases evaluated per run. The daemon leg is what ffcd's
// certifier does after an install in the ffcd-churn workload: the
// calibrated scale-1 plan at ffcd's solver options, (0,2,1). The others
// certify ×40-saturated plans, where more links bind: ke2 is the
// lnet-drift level, and the ke1kv1 and ke1 legs (935 and 56 exact cases)
// are the single-link levels: node bounds dismiss most of ke1kv1's cases,
// while at ke1 every node holds a single case, so the probe's greedy pass,
// itself a full single-link enumeration, buys nothing there. The
// daemon-chain leg certifies all five daemon steps per op, each probed with
// the step before's worst case where ffcd would probe it (ProbeFrom); the
// daemon-chain-greedy leg runs the same chain with no probe.
func BenchmarkCertLNet(b *testing.B) {
	b.Run("daemon", func(b *testing.B) {
		net, set, steps := daemonPlans(b)
		benchExact(b, net, set, steps[0].st, Params{Prot: daemonProt})
	})
	for _, leg := range []struct {
		name   string
		probed bool
	}{{"daemon-chain", true}, {"daemon-chain-greedy", false}} {
		b.Run(leg.name, func(b *testing.B) {
			net, set, steps := daemonPlans(b)
			ps := chainParams(b, net, set, steps, leg.probed)
			benchChain(b, net, set, steps, ps)
		})
	}
	for _, bc := range []struct {
		name string
		prot core.Protection
	}{
		{"ke2kv1", core.Protection{Ke: 2, Kv: 1}},
		{"ke2", core.Protection{Ke: 2}},
		{"ke1kv1", core.Protection{Ke: 1, Kv: 1}},
		{"ke1", core.Protection{Ke: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fx := lnetPlan(b, bc.prot)
			benchExact(b, fx.net, fx.set, fx.st, Params{Prot: bc.prot})
		})
	}
}

// benchChain certifies the daemon steps in order b.N times, step i under
// ps[i], requiring an exact OK.
func benchChain(b *testing.B, net *topology.Network, set *tunnel.Set, steps []daemonStep, ps []Params) {
	b.ReportAllocs()
	b.ResetTimer()
	evals := obs.Default().Histogram("check.cases_evaluated")
	evals0 := evals.Sum()
	for i := 0; i < b.N; i++ {
		for j, s := range steps {
			cert, err := Certify(net, set, s.st, s.prev, ps[j])
			if err != nil {
				b.Fatal(err)
			}
			if !cert.OK || !cert.Exact {
				b.Fatalf("%s: daemon plan not certified exactly: %s", s.name, cert.Summary())
			}
		}
	}
	b.ReportMetric(float64(evals.Sum()-evals0)/float64(b.N), "evals/op")
}

// benchExact certifies st b.N times, requiring an exact OK.
func benchExact(b *testing.B, net *topology.Network, set *tunnel.Set, st *core.State, p Params) {
	b.ReportAllocs()
	b.ResetTimer()
	evals := obs.Default().Histogram("check.cases_evaluated")
	var cases int64
	evals0 := evals.Sum()
	for i := 0; i < b.N; i++ {
		cert, err := Certify(net, set, st, st, p)
		if err != nil {
			b.Fatal(err)
		}
		if !cert.OK || !cert.Exact {
			b.Fatalf("fixture plan not certified exactly: %s", cert.Summary())
		}
		cases += cert.CasesChecked
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(cases), "us/case")
	b.ReportMetric(float64(evals.Sum()-evals0)/float64(b.N), "evals/op")
}

package check

// BenchmarkCertSNet measures certifying the saturated S-Net ke=2/kv=1
// plan — the dominant cost of running ffccheck over a recorded trace or
// the controller's async certifier. The exact variant enumerates every
// pruned fault combination; the adversarial variant is the bounded
// search large topologies fall back to.

import (
	"testing"

	"ffc/internal/core"
)

func BenchmarkCertSNet(b *testing.B) {
	net, set, _, st := snetPlan(b)
	run := func(b *testing.B, p Params) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cert, err := Certify(net, set, st, st, p)
			if err != nil {
				b.Fatal(err)
			}
			if !cert.OK {
				b.Fatalf("fixture plan failed certification: %+v", cert.Violation)
			}
		}
	}
	b.Run("exact", func(b *testing.B) {
		run(b, Params{Prot: snetProt, Mode: Exact})
	})
	b.Run("adversarial", func(b *testing.B) {
		run(b, Params{Prot: snetProt, Mode: Adversarial})
	})
}

// BenchmarkCertLNet certifies the benchmark's L-Net plans exactly — what
// ffcd's certifier does after every install at -ke 2 -kv 1, and the
// lnet-drift workload at ke=2 — and reports the cost per enumerated case.
func BenchmarkCertLNet(b *testing.B) {
	for _, bc := range []struct {
		name string
		prot core.Protection
	}{
		{"ke2kv1", core.Protection{Ke: 2, Kv: 1}},
		{"ke2", core.Protection{Ke: 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fx := lnetPlan(b, bc.prot)
			b.ReportAllocs()
			b.ResetTimer()
			var cases int64
			for i := 0; i < b.N; i++ {
				cert, err := Certify(fx.net, fx.set, fx.st, fx.st, Params{Prot: bc.prot})
				if err != nil {
					b.Fatal(err)
				}
				if !cert.OK || !cert.Exact {
					b.Fatalf("fixture plan not certified exactly: %s", cert.Summary())
				}
				cases += cert.CasesChecked
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(cases), "us/case")
		})
	}
}

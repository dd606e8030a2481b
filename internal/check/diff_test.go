package check

// The differential harness: every production path a plan can take from
// the solver to an installed configuration — a one-shot scratch solve, a
// session that rebinds its model template on a carried basis, snapshot
// encode/restore — must yield plans that certify identically. A snapshot
// roundtrip is lossless (Go JSON round-trips float64 exactly), so the
// restored plan and its certificate must match the template plan bitwise.
// Between the cold and the warm solve the simplex may legitimately land on
// an alternate optimum, so there the assertion is the one that matters:
// every path certifies OK, exactly, at the same protection. (That a
// template rebind equals a fresh formulation on the same basis, bit for
// bit, is core.TestSessionTemplateMatchesScratchSolve.)

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

// snetProt is the S-Net acceptance level: two link failures plus one
// switch failure.
var snetProt = core.Protection{Ke: 2, Kv: 1}

var (
	snetPlanOnce sync.Once
	snetPlanFx   struct {
		net  *topology.Network
		set  *tunnel.Set
		prev *core.State
		st   *core.State
		err  error
	}
)

// snetPlan solves the shared S-Net fixture once: an unprotected warm-up
// interval, then the ke=2/kv=1 plan the mutation tests and benchmarks
// certify. Demands are scaled far past capacity so the solve is
// capacity-limited — bottleneck links sit at the FFC boundary, which is
// what makes single-element mutations detectable.
func snetPlan(tb testing.TB) (*topology.Network, *tunnel.Set, *core.State, *core.State) {
	tb.Helper()
	if raceEnabled {
		tb.Skip("S-Net ke=2/kv=1 solves are prohibitively slow under the race detector")
	}
	snetPlanOnce.Do(func() {
		net := topology.SNet()
		rng := rand.New(rand.NewSource(7))
		series := demand.Generate(net, demand.Config{Intervals: 2}, rng)
		var flows []tunnel.Flow
		for f := range series[0] {
			flows = append(flows, f)
		}
		set := tunnel.Layout(net, flows, tunnel.LayoutConfig{})
		saturated := demand.Matrix{}
		for f, d := range series[1] {
			saturated[f] = 40 * d
		}
		s := core.NewSolver(net, set, core.Options{})
		prev, _, err := s.Solve(core.Input{Demands: series[0]})
		if err != nil {
			snetPlanFx.err = err
			return
		}
		st, _, err := s.Solve(core.Input{Demands: saturated, Prot: snetProt, Prev: prev})
		if err != nil {
			snetPlanFx.err = err
			return
		}
		snetPlanFx.net, snetPlanFx.set, snetPlanFx.prev, snetPlanFx.st = net, set, prev, st
	})
	if snetPlanFx.err != nil {
		tb.Fatalf("solving S-Net fixture: %v", snetPlanFx.err)
	}
	return snetPlanFx.net, snetPlanFx.set, snetPlanFx.prev, snetPlanFx.st
}

// statesEqual compares the plan data the certifier reads: rates and
// allocation vectors, bitwise.
func statesEqual(a, b *core.State) bool {
	return reflect.DeepEqual(a.Rate, b.Rate) && reflect.DeepEqual(a.Alloc, b.Alloc)
}

// certsEqual compares certificates bitwise, ignoring wall-clock.
func certsEqual(a, b *Certificate) bool {
	ca, cb := *a, *b
	ca.Elapsed, cb.Elapsed = 0, 0
	return reflect.DeepEqual(ca, cb)
}

func TestDifferentialPathEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *topology.Network
	}{
		{"snet", topology.SNet()},
		{"fattree", topology.FatTree(4, 25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "snet" && raceEnabled {
				t.Skip("S-Net ke=2/kv=1 solves are prohibitively slow under the race detector")
			}
			net := tc.net
			rng := rand.New(rand.NewSource(7))
			series := demand.Generate(net, demand.Config{Intervals: 2}, rng)
			var flows []tunnel.Flow
			for f := range series[0] {
				flows = append(flows, f)
			}
			set := tunnel.Layout(net, flows, tunnel.LayoutConfig{})
			in0 := core.Input{Demands: series[0], Prot: snetProt}
			in1 := core.Input{Demands: series[1], Prot: snetProt}

			scratch, _, err := core.NewSolver(net, set, core.Options{}).Solve(in1)
			if err != nil {
				t.Fatalf("scratch solve: %v", err)
			}

			se := core.NewSolver(net, set, core.Options{}).NewSession()
			if _, _, err := se.Solve(in0); err != nil {
				t.Fatalf("template interval 0: %v", err)
			}
			tmpl, stats, err := se.Solve(in1)
			if err != nil {
				t.Fatalf("template interval 1: %v", err)
			}
			if !stats.ModelReused {
				t.Fatal("template interval 1: model was re-formulated, want a rebind")
			}

			// Snapshot the template plan and restore it the way ctrl does at
			// boot: encode, marshal, parse against the controller's own set.
			sf := wire.EncodeState(net, set, series[1], tmpl)
			blob, err := json.Marshal(sf)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := wire.ParseState(net, set, blob)
			if err != nil {
				t.Fatalf("restoring snapshot: %v", err)
			}

			states := map[string]*core.State{
				"scratch": scratch, "template": tmpl, "snapshot": restored,
			}
			certs := map[string]*Certificate{}
			for name, st := range states {
				cert, err := Certify(net, set, st, st, Params{Prot: snetProt, Mode: Exact})
				if err != nil {
					t.Fatalf("certifying %s: %v", name, err)
				}
				if !cert.OK || !cert.Exact {
					t.Fatalf("%s plan failed exact certification at %+v: %+v", name, snetProt, cert.Violation)
				}
				certs[name] = cert
			}

			// Snapshot roundtrip is lossless.
			if !statesEqual(tmpl, restored) {
				t.Fatal("snapshot roundtrip changed the plan")
			}
			if !certsEqual(certs["template"], certs["snapshot"]) {
				t.Fatalf("template/snapshot certificates differ:\n%+v\n%+v", certs["template"], certs["snapshot"])
			}

			// The ffccheck offline path rebuilds the tunnel set purely from
			// the recorded paths; flow order may differ, so per-link sums can
			// drift by ulps — the verdict and the case accounting may not.
			var back wire.StateFile
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			rset, err := wire.TunnelSetFromState(net, &back)
			if err != nil {
				t.Fatal(err)
			}
			rst, err := wire.ResolveState(net, rset, &back)
			if err != nil {
				t.Fatal(err)
			}
			rcert, err := Certify(net, rset, rst, rst, Params{Prot: snetProt, Mode: Exact})
			if err != nil {
				t.Fatal(err)
			}
			tcert := certs["template"]
			if !rcert.OK || !rcert.Exact {
				t.Fatalf("rebuilt-set plan failed certification: %+v", rcert.Violation)
			}
			if rcert.CasesChecked != tcert.CasesChecked || rcert.CasesCovered != tcert.CasesCovered {
				t.Fatalf("rebuilt-set case accounting %d/%d, want %d/%d",
					rcert.CasesChecked, rcert.CasesCovered, tcert.CasesChecked, tcert.CasesCovered)
			}
			if d := math.Abs(rcert.WorstSlack - tcert.WorstSlack); d > 1e-9*math.Max(1, math.Abs(tcert.WorstSlack)) {
				t.Fatalf("rebuilt-set worst slack %g, want %g", rcert.WorstSlack, tcert.WorstSlack)
			}

			// A degraded last-good fallback promises congestion-freedom under
			// the faults it degraded around, nothing more: certify at zero
			// protection with the faults pre-applied.
			dl := map[topology.LinkID]bool{}
			l := net.Links[0].ID
			dl[l] = true
			if tw := net.Links[l].Twin; tw != topology.None {
				dl[tw] = true
			}
			deg := core.Degrade(net, set, tmpl, series[1], dl, nil)
			dcert, err := Certify(net, set, deg, deg, Params{Prot: core.None, Mode: Exact, DownLinks: dl})
			if err != nil {
				t.Fatal(err)
			}
			if !dcert.OK {
				t.Fatalf("degraded plan failed zero-protection certification: %+v", dcert.Violation)
			}
		})
	}
}

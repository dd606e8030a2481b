package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"ffc/internal/demand"
	"ffc/internal/lp"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// buildFixture lays out tunnels for every site-pair flow of net and returns
// a drifting demand series over them — the template's target regime:
// structure frozen, values moving.
func buildFixture(tb testing.TB, net *topology.Network, intervals int, seed int64) (*tunnel.Set, demand.Series) {
	tb.Helper()
	series := demand.Generate(net, demand.Config{Intervals: intervals, NoiseSigma: 0.1},
		rand.New(rand.NewSource(seed)))
	set := tunnel.Layout(net, series[0].Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 4, P: 1, Q: 3})
	return set, series
}

// modelBytes serializes a built LP; byte equality of two serializations is
// the strongest equivalence the suite asserts — identical variables, order,
// coefficients, bounds, and RHS, bit for bit.
func modelBytes(tb testing.TB, m *lp.Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// scratchBuilder formulates in from scratch on s, failing the test on error.
func scratchBuilder(tb testing.TB, s *Solver, in Input) *builder {
	tb.Helper()
	b := newBuilder(s, &in)
	if err := b.formulate(); err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestTemplateInstantiateBitIdentical freezes a ModelTemplate on interval 0
// and re-instantiates it for later intervals, checking the rebound model is
// byte-identical to a scratch formulation of the same input — on the
// paper's S-Net WAN and on a fat-tree DCN. For the first re-instantiated
// interval both models are also solved cold and must agree on the exact
// solution vector (same model bytes + same deterministic simplex ⇒ same
// bits).
func TestTemplateInstantiateBitIdentical(t *testing.T) {
	nets := []struct {
		name string
		net  *topology.Network
		ke   int
	}{
		{"snet", topology.SNet(), 2},
		{"fattree", topology.FatTree(4, 10), 1},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			set, series := buildFixture(t, tc.net, 3, 7)
			s := NewSolver(tc.net, set, Options{})
			mkIn := func(i int) Input {
				return Input{Demands: series[i], Prot: Protection{Ke: tc.ke}}
			}
			tmpl, err := s.NewTemplate(mkIn(0))
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(series); i++ {
				if err := tmpl.Instantiate(mkIn(i)); err != nil {
					t.Fatalf("interval %d: %v", i, err)
				}
				scratch := scratchBuilder(t, s, mkIn(i))
				got, want := modelBytes(t, tmpl.b.model), modelBytes(t, scratch.model)
				if !bytes.Equal(got, want) {
					t.Fatalf("interval %d: instantiated model differs from scratch formulation (%d vs %d bytes)",
						i, len(got), len(want))
				}
				if i != 1 {
					continue
				}
				solT, err := tmpl.b.model.Solve()
				if err != nil {
					t.Fatal(err)
				}
				solS, err := scratch.model.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if solT.Objective != solS.Objective {
					t.Fatalf("objectives differ: template %v, scratch %v", solT.Objective, solS.Objective)
				}
				if len(solT.X) != len(solS.X) {
					t.Fatalf("solution lengths differ: %d vs %d", len(solT.X), len(solS.X))
				}
				for j := range solT.X {
					if solT.X[j] != solS.X[j] {
						t.Fatalf("x[%d] differs: template %v, scratch %v", j, solT.X[j], solS.X[j])
					}
				}
			}
		})
	}
}

// TestTemplateMismatchRejected exercises the invalidation rules: structural
// changes must be refused by Instantiate, not silently rebound.
func TestTemplateMismatchRejected(t *testing.T) {
	net := topology.SNet()
	set, series := buildFixture(t, net, 2, 11)
	s := NewSolver(net, set, Options{})
	base := Input{Demands: series[0], Prot: Protection{Ke: 1}}
	tmpl, err := s.NewTemplate(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.Instantiate(Input{Demands: series[1], Prot: Protection{Ke: 1}}); err != nil {
		t.Fatalf("value-only change rejected: %v", err)
	}

	protChange := base
	protChange.Prot = Protection{Ke: 2}
	if err := tmpl.Instantiate(protChange); err != ErrTemplateMismatch {
		t.Fatalf("protection change: got %v, want ErrTemplateMismatch", err)
	}

	flowChange := Input{Demands: series[0].Clone(), Prot: Protection{Ke: 1}}
	flowChange.Demands[series[0].Flows()[0]] = 0 // drops the flow's variables
	if err := tmpl.Instantiate(flowChange); err != ErrTemplateMismatch {
		t.Fatalf("flow-list change: got %v, want ErrTemplateMismatch", err)
	}

	faultChange := base
	faultChange.DownLinks = map[topology.LinkID]bool{net.Links[0].ID: true}
	if err := tmpl.Instantiate(faultChange); err != ErrTemplateMismatch {
		t.Fatalf("fault-state change: got %v, want ErrTemplateMismatch", err)
	}

	// The mice set is part of the fingerprint: doubling every demand keeps
	// it and rebinds; one mouse grown past the budget changes it.
	ms := NewSolver(net, set, Options{MiceFraction: 0.01})
	miceTmpl, err := ms.NewTemplate(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(miceTmpl.b.mice) == 0 {
		t.Fatal("fixture has no mice")
	}
	if err := miceTmpl.Instantiate(Input{Demands: series[0].Scale(2), Prot: Protection{Ke: 1}}); err != nil {
		t.Fatalf("value change keeping the mice set rejected: %v", err)
	}
	miceChange := Input{Demands: series[0].Clone(), Prot: Protection{Ke: 1}}
	miceChange.Demands[miceTmpl.b.miceOf(&base)[0]] *= 1000
	if err := miceTmpl.Instantiate(miceChange); err != ErrTemplateMismatch {
		t.Fatalf("mice-set change: got %v, want ErrTemplateMismatch", err)
	}

	// Control-plane FFC embeds the previous state as coefficients: never
	// rebindable, even against an identical input.
	st, _, err := s.Solve(base)
	if err != nil {
		t.Fatal(err)
	}
	kcIn := Input{Demands: series[0], Prot: Protection{Kc: 1}, Prev: st}
	kcTmpl, err := s.NewTemplate(kcIn)
	if err != nil {
		t.Fatal(err)
	}
	if err := kcTmpl.Instantiate(kcIn); err != ErrTemplateMismatch {
		t.Fatalf("kc > 0 template: got %v, want ErrTemplateMismatch", err)
	}
}

// TestSessionTemplateMatchesScratchSolve runs a warm-started Session chain
// twice — rebinding the cached template, and with the template dropped
// before every solve so each interval is a fresh formulation on the same
// carried basis and factorization: since the instantiated model is
// byte-identical to the fresh one (which both paths' FactorReused checks)
// and the basis evolves identically, every interval's state must match bit
// for bit. The L-Net chain runs with §6 mice (the same three flows every
// interval), so its rebinds pass the mice-set fingerprint. The S-Net chain
// (demands scaled until the network is congested, so the warm re-solves
// pivot; ke=1 keeps it to seconds) is skipped with -short.
func TestSessionTemplateMatchesScratchSolve(t *testing.T) {
	fixtures := []struct {
		name  string
		net   *topology.Network
		seed  int64
		scale float64
		opts  Options
		slow  bool
	}{
		{"fattree", topology.FatTree(4, 10), 13, 1, Options{}, false},
		// Three mice, the same three in every interval.
		{"lnet-mice", topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1))), 5, 200, Options{MiceFraction: 0.01}, false},
		{"snet", topology.SNet(), 61, 4.5, Options{}, true},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			if fx.slow && testing.Short() {
				t.Skip("S-Net chain is slow; skipped with -short")
			}
			set, series := buildFixture(t, fx.net, 4, fx.seed)
			run := func(rebind bool) []*State {
				se := NewSolver(fx.net, set, fx.opts).NewSession()
				var out []*State
				for i, dem := range series {
					in := Input{Demands: dem.Scale(fx.scale), Prot: Protection{Ke: 1}}
					if i == 2 {
						// A timed-out and a crashed solve in between must leave
						// both sessions equivalent (the sim's degraded intervals).
						for _, bad := range []Budget{
							{Deadline: -time.Nanosecond},
							{Hook: func(int) { panic("injected solver crash") }},
						} {
							if !rebind {
								se.tmpl, se.prev = nil, nil
							}
							failing := in
							failing.Budget = bad
							if _, _, err := se.Solve(failing); err == nil {
								t.Fatalf("rebind=%v interval %d: injected fault %+v did not fail the solve", rebind, i, bad)
							}
						}
					}
					if !rebind {
						se.tmpl, se.prev = nil, nil
					}
					st, stats, err := se.Solve(in)
					if err != nil {
						t.Fatalf("rebind=%v interval %d: %v", rebind, i, err)
					}
					if wantReuse := rebind && i > 0; stats.ModelReused != wantReuse {
						t.Fatalf("rebind=%v interval %d: ModelReused=%v, want %v",
							rebind, i, stats.ModelReused, wantReuse)
					}
					// The rebound and the fresh model are bit-identical in
					// their matrix, so on both paths every warm interval seats
					// the factorization the last solve carried — except
					// interval 2, whose handle the failed solves consumed.
					wantCarry := i > 0 && i != 2
					if (i > 0 && !stats.LP.Warm) || stats.LP.FactorReused != wantCarry {
						t.Fatalf("rebind=%v interval %d: Warm=%v FactorReused=%v, want warm with FactorReused=%v",
							rebind, i, stats.LP.Warm, stats.LP.FactorReused, wantCarry)
					}
					if fx.opts.MiceFraction > 0 && len(se.tmpl.b.mice) == 0 {
						t.Fatalf("rebind=%v interval %d: fixture has no mice", rebind, i)
					}
					out = append(out, st)
				}
				return out
			}
			withTmpl, scratch := run(true), run(false)
			for i := range withTmpl {
				for f, r := range scratch[i].Rate {
					if withTmpl[i].Rate[f] != r {
						t.Fatalf("interval %d flow %v: rate %v (template) != %v (scratch)",
							i, f, withTmpl[i].Rate[f], r)
					}
				}
				for f, alloc := range scratch[i].Alloc {
					got := withTmpl[i].Alloc[f]
					if len(got) != len(alloc) {
						t.Fatalf("interval %d flow %v: alloc lengths differ", i, f)
					}
					for j := range alloc {
						if got[j] != alloc[j] {
							t.Fatalf("interval %d flow %v tunnel %d: alloc %v (template) != %v (scratch)",
								i, f, j, got[j], alloc[j])
						}
					}
				}
			}
		})
	}
}

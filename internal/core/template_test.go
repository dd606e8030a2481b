package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"ffc/internal/demand"
	"ffc/internal/lp"
	"ffc/internal/sortnet"
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

// TestSortnetCacheByteIdentical formulates the same inputs with the sortnet
// comparator-network cache enabled and disabled: the stamped-out encodings
// must be byte-identical to freshly derived ones, and the enabled pass must
// actually hit the cache.
func TestSortnetCacheByteIdentical(t *testing.T) {
	net := topology.SNet()
	set, series := buildFixture(t, net, 1, 9)
	s := NewSolver(net, set, Options{})
	in := Input{Demands: series[0], Prot: Protection{Ke: 2, Kv: 1}}

	sortnet.SetCache(false)
	cold := modelBytes(t, scratchBuilder(t, s, in).model)
	sortnet.SetCache(true)
	defer sortnet.SetCache(true) // leave the process-wide default in place
	warm := modelBytes(t, scratchBuilder(t, s, in).model)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache-off and cache-on formulations differ (%d vs %d bytes)", len(cold), len(warm))
	}
	if sortnet.CacheLen() == 0 {
		t.Fatal("cache-on formulation left the sortnet cache empty")
	}
	// A second build of the same input must stamp from the cache alone.
	h0, _ := sortnet.CacheCounters()
	_ = modelBytes(t, scratchBuilder(t, s, in).model)
	if h1, _ := sortnet.CacheCounters(); h1 <= h0 {
		t.Fatalf("repeat formulation recorded no cache hits (%d → %d)", h0, h1)
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
// carried basis: since the instantiated model is byte-identical to the
// fresh one and the basis evolves identically, every interval's state must
// match bit for bit. The S-Net chain (demands scaled until the network is
// congested, so the warm re-solves pivot; ke=1 keeps it to seconds) is
// skipped with -short.
func TestSessionTemplateMatchesScratchSolve(t *testing.T) {
	fixtures := []struct {
		name  string
		net   *topology.Network
		seed  int64
		scale float64
		slow  bool
	}{
		{"fattree", topology.FatTree(4, 10), 13, 1, false},
		{"snet", topology.SNet(), 61, 4.5, true},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			if fx.slow && testing.Short() {
				t.Skip("S-Net chain is slow; skipped with -short")
			}
			set, series := buildFixture(t, fx.net, 4, fx.seed)
			run := func(rebind bool) []*State {
				se := NewSolver(fx.net, set, Options{}).NewSession()
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
								se.tmpl = nil
							}
							failing := in
							failing.Budget = bad
							if _, _, err := se.Solve(failing); err == nil {
								t.Fatalf("rebind=%v interval %d: injected fault %+v did not fail the solve", rebind, i, bad)
							}
						}
					}
					if !rebind {
						se.tmpl = nil
					}
					st, stats, err := se.Solve(in)
					if err != nil {
						t.Fatalf("rebind=%v interval %d: %v", rebind, i, err)
					}
					if wantReuse := rebind && i > 0; stats.ModelReused != wantReuse {
						t.Fatalf("rebind=%v interval %d: ModelReused=%v, want %v",
							rebind, i, stats.ModelReused, wantReuse)
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

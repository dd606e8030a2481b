package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

func TestInputValidateRejectsBadValues(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})

	st, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: math.NaN()}})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("NaN demand: err = %v, want ErrBadInput", err)
	}
	if st != nil || stats == nil || stats.Outcome != OutcomeSolverError {
		t.Fatalf("NaN demand: st=%v stats=%+v", st, stats)
	}

	_, stats, err = s.Solve(Input{Demands: demand.Matrix{fx.f24: -1}})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative demand: err = %v, want ErrBadInput", err)
	}
	if stats == nil || stats.Outcome != OutcomeSolverError {
		t.Fatalf("negative demand: stats = %+v", stats)
	}

	_, _, err = s.Solve(Input{Demands: demand.Matrix{fx.f24: 1}, Prot: Protection{Ke: -1}})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative protection: err = %v, want ErrBadInput", err)
	}

	// FormulateOnly shares Solve's validation.
	for _, d := range []float64{math.NaN(), math.Inf(1), -1} {
		stats, err := s.FormulateOnly(Input{Demands: demand.Matrix{fx.f24: d}, Prot: Protection{Ke: 1}})
		if !errors.Is(err, ErrBadInput) || stats != nil {
			t.Fatalf("FormulateOnly demand %g: stats = %+v, err = %v, want ErrBadInput", d, stats, err)
		}
	}
}

func TestDegradeCapsRateToSurvivingAlloc(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	// Force traffic onto both of f24's tunnels (direct + via s1).
	dem := demand.Matrix{fx.f24: 14}
	last, _, err := s.Solve(Input{Demands: dem})
	if err != nil {
		t.Fatal(err)
	}

	// Nothing down: Degrade must reproduce the installed state exactly.
	same := Degrade(fx.net, fx.tun, last, dem, nil, nil)
	if math.Abs(same.Rate[fx.f24]-last.Rate[fx.f24]) > 1e-9 {
		t.Fatalf("no-fault degrade changed rate: %v -> %v", last.Rate[fx.f24], same.Rate[fx.f24])
	}
	for i, a := range last.Alloc[fx.f24] {
		if math.Abs(same.Alloc[fx.f24][i]-a) > 1e-9 {
			t.Fatalf("no-fault degrade changed alloc[%d]: %v -> %v", i, a, same.Alloc[fx.f24][i])
		}
	}

	// Fail the direct s2→s4 link: the direct tunnel's allocation must drop
	// to zero and the rate cap to the surviving (via-s1) allocation.
	direct := fx.net.FindLink(fx.s2, fx.s4)
	down := map[topology.LinkID]bool{direct: true}
	if tw := fx.net.Links[direct].Twin; tw != topology.None {
		down[tw] = true
	}
	deg := Degrade(fx.net, fx.tun, last, dem, down, nil)
	if deg.Alloc[fx.f24][0] != 0 {
		t.Fatalf("dead tunnel kept allocation %v", deg.Alloc[fx.f24][0])
	}
	want := last.Alloc[fx.f24][1]
	if math.Abs(deg.Rate[fx.f24]-want) > 1e-9 {
		t.Fatalf("degraded rate %v, want surviving alloc %v", deg.Rate[fx.f24], want)
	}
	// The degraded traffic must fit the installed plan's reservations.
	for l, load := range deg.ActualLinkLoads(fx.tun) {
		if load > fx.net.Links[l].Capacity+1e-6 {
			t.Fatalf("degraded state overloads link %d: %v", l, load)
		}
	}
}

func TestSolveBudgetHitReturnsBestSoFar(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	in := Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10}}
	in.Budget.Deadline = -time.Nanosecond // expired before the first pivot
	st, stats, err := s.Solve(in)
	if err == nil {
		t.Fatalf("expired budget solved anyway")
	}
	if stats == nil || stats.Outcome != OutcomeBudgetHit {
		t.Fatalf("stats = %+v, want budget-hit", stats)
	}
	// The TE LP is feasible at the all-zero point, so a best-so-far state
	// must come back — and must respect capacities.
	if st == nil {
		t.Fatalf("budget hit in Phase II returned no best-so-far state")
	}
	for l, load := range st.LinkLoads(fx.tun) {
		if load > fx.net.Links[l].Capacity+1e-6 {
			t.Fatalf("best-so-far state overloads link %d: %v", l, load)
		}
	}
}

func TestSolveRecoversInjectedPanic(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	in := Input{Demands: demand.Matrix{fx.f24: 10}}
	in.Budget.Hook = func(int) { panic("injected solver crash") }
	st, stats, err := s.Solve(in)
	if err == nil {
		t.Fatalf("injected panic did not surface as an error")
	}
	if st != nil {
		t.Fatalf("crashed solve returned a state")
	}
	if stats == nil || stats.Outcome != OutcomeSolverError {
		t.Fatalf("stats = %+v, want solver-error", stats)
	}
}

func TestSolveBudgetGenerousCompletes(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	in := Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10}}
	in.Budget.Deadline = time.Minute
	st, stats, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Outcome != OutcomeOptimal {
		t.Fatalf("outcome = %v, want optimal", stats.Outcome)
	}
	if math.Abs(st.TotalRate()-20) > 1e-6 {
		t.Fatalf("throughput %v, want 20", st.TotalRate())
	}
}

// TestStep runs the shared control step through each of its branches. A
// failed step must serve Degrade(prev) capped at the interval's demand, and
// the session must still reach a fresh session's optimum on its next call.
func TestStep(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	prev, _, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 14, fx.f34: 6}})
	if err != nil {
		t.Fatal(err)
	}
	// f24 asks for less than prev grants it, so a fallback must cap it.
	dem := demand.Matrix{fx.f24: 5, fx.f34: 6}
	ke1 := Protection{Ke: 1}
	direct := fx.net.FindLink(fx.s2, fx.s4)
	down := map[topology.LinkID]bool{direct: true, fx.net.Links[direct].Twin: true}
	kind := func(k faults.SolverFaultKind) *faults.SolverFaultKind { return &k }
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Each link carries 10: at ke = 1 f24 can be granted at most 10 (each
	// of its two tunnels must carry the whole rate alone), unprotected 20.
	floor14 := Input{Demands: demand.Matrix{fx.f24: 14}, RateFloors: map[tunnel.Flow]float64{fx.f24: 14}}
	floor25 := Input{Demands: demand.Matrix{fx.f24: 25}, RateFloors: map[tunnel.Flow]float64{fx.f24: 25}}
	with := func(in Input, prot Protection) Input { in.Prot = prot; return in }

	for _, tc := range []struct {
		name     string
		in       Input // Demands default to dem; Prev is always prev
		fault    *faults.SolverFaultKind
		reason   string
		achieved Protection
		solves   int64 // LP solves the step runs; 0 is not checked
	}{
		{name: "optimal", in: Input{Prot: ke1}, achieved: ke1, solves: 1},
		{name: "timeout", in: Input{Prot: ke1}, fault: kind(faults.SolverTimeout), reason: "timeout", solves: 1},
		{name: "crash", in: Input{Prot: ke1, DownLinks: down}, fault: kind(faults.SolverCrash), reason: "crash"},
		{name: "stale", in: Input{Prot: ke1}, fault: kind(faults.SolverStale), reason: "stale", solves: 1},
		// A new flow forces a fresh formulation, which takes more than one
		// pivot (the warm re-solve of dem would need none).
		{name: "deadline", in: Input{Demands: demand.Matrix{fx.f24: 5, fx.f34: 6, fx.f14: 6}, Prot: ke1, Budget: Budget{MaxIters: 1}}, reason: "deadline", solves: 1},
		{name: "unprotected retry", in: with(floor14, ke1), solves: 2},
		{name: "infeasible", in: with(floor25, ke1), reason: "infeasible", solves: 2},
		{name: "unprotected infeasible", in: floor25, reason: "infeasible", solves: 1},
		{name: "cancelled", in: Input{Prot: ke1, Budget: Budget{Ctx: cancelled}}, reason: "cancelled", solves: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			if in.Demands == nil {
				in.Demands = dem
			}
			in.Prev = prev
			next := Input{Demands: dem, Prot: ke1, Prev: prev}
			se := s.NewSession()
			if _, _, reason, _ := se.Step(next, nil); reason != "" {
				t.Fatalf("warm-up step degraded: %s", reason)
			}

			solves := obs.Default().Counter("lp.solves")
			before := solves.Value()
			st, achieved, reason, stats := se.Step(in, tc.fault)
			if n := solves.Value() - before; tc.solves != 0 && n != tc.solves {
				t.Fatalf("step ran %d LP solves, want %d", n, tc.solves)
			}
			if reason != tc.reason || achieved != tc.achieved || stats == nil {
				t.Fatalf("reason %q achieved %v stats %v, want reason %q achieved %v", reason, achieved, stats, tc.reason, tc.achieved)
			}
			if reason == "" {
				want, _, err := s.Solve(with(in, achieved))
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(st.TotalRate() - want.TotalRate()); d > 1e-9 {
					t.Fatalf("step granted %g, a fresh solve %g", st.TotalRate(), want.TotalRate())
				}
			} else {
				want := Degrade(fx.net, fx.tun, prev, in.Demands, in.DownLinks, in.DownSwitches)
				for f, r := range st.Rate {
					if r != want.Rate[f] || r > in.Demands[f] {
						t.Fatalf("flow %v: fallback rate %g, want Degrade's %g within demand %g", f, r, want.Rate[f], in.Demands[f])
					}
				}
				if len(st.Rate) != len(prev.Rate) {
					t.Fatalf("fallback has %d flows, prev %d", len(st.Rate), len(prev.Rate))
				}
			}

			got, _, reason, _ := se.Step(next, nil)
			want, _, err := s.Solve(next)
			if err != nil {
				t.Fatal(err)
			}
			if reason != "" || math.Abs(got.TotalRate()-want.TotalRate()) > 1e-9 {
				t.Fatalf("next step: reason %q granted %g, a fresh session %g", reason, got.TotalRate(), want.TotalRate())
			}
		})
	}
}

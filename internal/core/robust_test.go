package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"ffc/internal/demand"
	"ffc/internal/topology"
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
	last, _, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 14}})
	if err != nil {
		t.Fatal(err)
	}

	// Nothing down: Degrade must reproduce the installed state exactly.
	same := Degrade(fx.net, fx.tun, last, nil, nil)
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
	deg := Degrade(fx.net, fx.tun, last, down, nil)
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
	s := NewSolver(fx.net, fx.tun, Options{SolveBudget: time.Minute})
	st, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10}})
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

// The default budget is quartered only for a warm re-solve of the rebound
// template. A session that merely holds a basis from a model of other
// dimensions (protection changed → fresh formulation, cold simplex) gets the
// whole SolveBudget.
func TestSessionBudgetQuarteredOnlyWhenTemplateRebound(t *testing.T) {
	fx := newFig25(t)
	const budget = time.Second
	s := NewSolver(fx.net, fx.tun, Options{SolveBudget: budget})
	// stall burns more than budget/warmBudgetDiv but well under budget
	// before the first pivot; the deadline is checked right after the hook.
	stall := func() func(int) {
		done := false
		return func(int) {
			if !done {
				done = true
				time.Sleep(budget/warmBudgetDiv + budget/20)
			}
		}
	}
	in := Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10}}
	se := s.NewSession()
	if _, _, err := se.Solve(in); err != nil {
		t.Fatal(err)
	}

	same := in
	same.Budget.Hook = stall()
	if _, stats, err := se.Solve(same); err == nil || !stats.ModelReused || stats.Outcome != OutcomeBudgetHit {
		t.Fatalf("rebound re-solve stalled past budget/%d: reused=%v outcome=%v err=%v, want a budget hit",
			warmBudgetDiv, stats.ModelReused, stats.Outcome, err)
	}

	changed := in
	changed.Prot.Ke = 1
	changed.Budget.Hook = stall()
	st, stats, err := se.Solve(changed)
	if err != nil {
		t.Fatalf("protection change ran on a quartered budget: %v", err)
	}
	if stats.ModelReused || stats.LP.Warm || stats.Outcome != OutcomeOptimal || st == nil {
		t.Fatalf("stats = %+v, want a fresh cold optimal solve", stats)
	}
}

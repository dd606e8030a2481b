package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// countingRep wraps a carried factorization to observe how a seat uses it.
type countingRep struct {
	basisRep
	refactors, ftrans int
}

func (c *countingRep) refactor(st *simplexState) { c.refactors++; c.basisRep.refactor(st) }
func (c *countingRep) ftranDense(x []float64)    { c.ftrans++; c.basisRep.ftranDense(x) }

// withoutFactor returns a handle with ws's statuses and no factorization,
// so a seat from it refactors.
func withoutFactor(ws *WarmStart) *WarmStart {
	return &WarmStart{nCols: ws.nCols, nRows: ws.nRows, colStat: ws.colStat, slackStat: ws.slackStat}
}

// TestCarriedSeatMatchesRefactoredSeat re-solves each perturbed model twice
// from the same basis: once seated on the carried factorization, once on a
// fresh one. The carried seat must use the factorization it was handed
// without refactoring it (every refactor call is a scheduled reinversion the
// stats count), and both must reach the enumerator's optimum and each
// other's objective to 1e-9 relative — for each of the differential
// harness's perturbation classes, on both cold representations.
func TestCarriedSeatMatchesRefactoredSeat(t *testing.T) {
	classes := []struct {
		name             string
		rhs, bounds, obj bool
	}{
		{"rhs", true, false, false},
		{"bounds", false, true, false},
		{"objective", false, false, true},
	}
	for ci, cl := range classes {
		t.Run(cl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(29 + ci)))
			carried, pivoted := 0, 0
			for c := 0; c < 4000; c++ {
				p := randomRefProblem(rng)
				m, vars := p.toModel()
				if c%2 == 0 {
					m.forceRep = 2
				}
				sol, err := m.Solve()
				if err != nil {
					continue
				}
				h := sol.Warm()
				f := h.fact.Load()
				if f == nil {
					continue // a basic artificial was dropped: nothing carried
				}
				cr := &countingRep{basisRep: f.rep}
				f.rep = cr
				fresh := withoutFactor(h)
				perturbClasses(p, rng, cl.rhs, cl.bounds, cl.obj)
				applyMutations(m, vars, p)

				got, gotErr := m.SolveFrom(h)
				checkAgainstRef(t, "carried", p, got, gotErr)
				ref, refErr := m.SolveFrom(fresh)
				checkAgainstRef(t, "refactored", p, ref, refErr)
				if ref.Stats.FactorReused {
					t.Fatalf("case %d: a handle without a factorization reported reuse", c)
				}
				if !got.Stats.Warm {
					continue // fell back to the cold crash (e.g. now infeasible)
				}
				if !got.Stats.FactorReused || cr.ftrans == 0 || cr.refactors != got.Stats.Reinversions {
					t.Fatalf("case %d: FactorReused %v, %d ftrans and %d refactors of the carried factorization, %d reinversions",
						c, got.Stats.FactorReused, cr.ftrans, cr.refactors, got.Stats.Reinversions)
				}
				if refErr != nil || !almost(got.Objective, ref.Objective, 1e-9*(1+math.Abs(ref.Objective))) {
					t.Fatalf("case %d: carried seat %g, refactored seat %g (%v)", c, got.Objective, ref.Objective, refErr)
				}
				carried++
				if got.Iters > 0 {
					pivoted++
				}
			}
			t.Logf("%s: %d carried seats, %d of them pivoted", cl.name, carried, pivoted)
			if carried < 500 || pivoted < 25 {
				t.Fatalf("only %d carried seats (%d pivoted); the class does not exercise the carry", carried, pivoted)
			}
		})
	}
}

// TestReusedHandleRefactors: a handle's factorization goes to its first
// seat; a second solve from the same handle refactors, and both are optimal.
func TestReusedHandleRefactors(t *testing.T) {
	for _, k := range []int{6, pfiThreshold + 20} {
		m, xs := dualChain(k)
		sol, err := m.Solve()
		requireOptimal(t, sol, err)
		for _, x := range xs {
			m.SetBounds(x, 0, 2)
		}
		h := sol.Warm()
		for use, wantReused := range []bool{true, false} {
			got, err := m.SolveFrom(h)
			requireOptimal(t, got, err)
			if st := got.Stats; !st.Warm || st.FactorReused != wantReused || st.DualIters != k || !almost(got.Objective, 2*float64(k), 1e-9) {
				t.Fatalf("k=%d use %d: objective %g, stats %+v; want a warm re-solve with FactorReused %v", k, use, got.Objective, st, wantReused)
			}
		}
	}
}

// TestCarryComparesMatrices: the carried factorization is seated on any
// model whose columns are bit-identical to the captured one — a fresh
// formulation included — and refactored when one coefficient moved by one
// ulp. A model that gained a row no longer fits the handle at all.
func TestCarryComparesMatrices(t *testing.T) {
	build := func(a float64) (*Model, Var) {
		m := NewModel()
		x := m.NewVar("x", 0, 10)
		y := m.NewVar("y", 0, 10)
		m.AddLE(NewExpr().Add(1, x).Add(a, y), 8)
		m.AddLE(NewExpr().Add(2, x).Add(1, y), 10)
		m.Maximize(NewExpr().Add(1, x).Add(1, y))
		return m, x
	}
	solved := func() *WarmStart {
		m, _ := build(1)
		sol, err := m.Solve()
		requireOptimal(t, sol, err)
		if sol.Warm().fact.Load() == nil {
			t.Fatal("optimum without a basic artificial carried no factorization")
		}
		return sol.Warm()
	}
	check := func(tag string, m *Model, wantWarm, wantReused bool) {
		t.Helper()
		got, err := m.SolveFrom(solved())
		requireOptimal(t, got, err)
		if got.Stats.Warm != wantWarm || got.Stats.FactorReused != wantReused {
			t.Fatalf("%s: Warm %v, FactorReused %v; want %v, %v", tag, got.Stats.Warm, got.Stats.FactorReused, wantWarm, wantReused)
		}
		cold, err := m.Solve()
		requireOptimal(t, cold, err)
		if !almost(got.Objective, cold.Objective, 1e-9) {
			t.Fatalf("%s: objective %g, cold %g", tag, got.Objective, cold.Objective)
		}
	}
	same, _ := build(1)
	check("fresh identical model", same, true, true)
	ulp, _ := build(math.Nextafter(1, 2))
	check("one coefficient one ulp off", ulp, true, false)
	grown, x := build(1)
	grown.AddLE(NewExpr().Add(1, x), 3)
	check("model with an added row", grown, false, false)
}

// TestSharedHandleConcurrentSolves: two goroutines re-solve from one handle
// at once. Exactly one gets the factorization; both reach the optimum, and
// -race sees no inverse updated by both.
func TestSharedHandleConcurrentSolves(t *testing.T) {
	const k = pfiThreshold + 20
	for round := 0; round < 4; round++ {
		m, _ := dualChain(k)
		sol, err := m.Solve()
		requireOptimal(t, sol, err)
		h := sol.Warm()
		var wg sync.WaitGroup
		got := make([]*Solution, 2)
		errs := make([]error, 2)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mg, xg := dualChain(k)
				for _, x := range xg {
					mg.SetBounds(x, 0, 2)
				}
				got[g], errs[g] = mg.SolveFrom(h)
			}()
		}
		wg.Wait()
		reused := 0
		for g, s := range got {
			requireOptimal(t, s, errs[g])
			if !s.Stats.Warm || !almost(s.Objective, 2*k, 1e-9) {
				t.Fatalf("round %d goroutine %d: objective %g, stats %+v", round, g, s.Objective, s.Stats)
			}
			if s.Stats.FactorReused {
				reused++
			}
		}
		if reused != 1 {
			t.Fatalf("round %d: %d solves reused the one carried factorization, want 1", round, reused)
		}
	}
}

// TestFailedSolveConsumesFactor: a solve that took the factorization and
// then stopped — at a deadline after 32 dual pivots, or by a Hook panic
// there — leaves its handle consumed. The next solve from it seats warm on a
// fresh factorization and reaches the optimum; it never sees the inverse
// the stopped solve updated.
func TestFailedSolveConsumesFactor(t *testing.T) {
	const k = 40
	stops := []struct {
		name string
		opts func() SolveOpts
		want func(error) bool
	}{
		{"deadline", func() SolveOpts {
			deadline := time.Now().Add(50 * time.Millisecond)
			return SolveOpts{Deadline: deadline, Hook: func(iters int) {
				if iters == 32 {
					time.Sleep(time.Until(deadline) + time.Millisecond)
				}
			}}
		}, func(err error) bool {
			var be *BudgetError
			return errors.As(err, &be) && be.Reason == BudgetDeadline
		}},
		{"hook-panic", func() SolveOpts {
			return SolveOpts{Hook: func(iters int) {
				if iters == 32 {
					panic("injected solver crash")
				}
			}}
		}, func(err error) bool { return errors.Is(err, ErrSolverPanic) }},
	}
	for _, stop := range stops {
		m, xs := dualChain(k)
		sol, err := m.Solve()
		requireOptimal(t, sol, err)
		for _, x := range xs {
			m.SetBounds(x, 0, 2)
		}
		h := sol.Warm()
		stopped, err := m.SolveWith(h, stop.opts())
		if !stop.want(err) {
			t.Fatalf("%s: err %v, want the injected stop", stop.name, err)
		}
		if stopped != nil && (stopped.Iters != 32 || !stopped.Stats.FactorReused) {
			t.Fatalf("%s: stopped after %d iterations, FactorReused %v; want 32 on the carried factorization",
				stop.name, stopped.Iters, stopped.Stats.FactorReused)
		}
		next, err := m.SolveFrom(h)
		requireOptimal(t, next, err)
		if st := next.Stats; !st.Warm || st.FactorReused || st.DualIters != k || !almost(next.Objective, 2*k, 1e-9) {
			t.Fatalf("%s: next solve objective %g, stats %+v; want %d dual pivots on a fresh factorization", stop.name, next.Objective, st, k)
		}
	}
}

// handleSnapshot copies everything a handle holds: its statuses and, while
// it still carries a factorization, the basis order, multipliers, reduced
// costs and the product form's eta arena.
func handleSnapshot(ws *WarmStart) []any {
	snap := []any{slices.Clone(ws.colStat), slices.Clone(ws.slackStat)}
	if f := ws.fact.Load(); f != nil {
		snap = append(snap, slices.Clone(f.s.basis), slices.Clone(f.s.y), slices.Clone(f.s.d))
		if p, ok := f.rep.(*pfiRep); ok {
			snap = append(snap, slices.Clone(p.etas), slices.Clone(p.idx), slices.Clone(p.vals))
		}
	}
	return snap
}

// TestSolvesShareNoArrays: a seat on a carried factorization reuses the
// simplex arrays of the solve that captured it, and none of them may show
// through what an earlier solve returned. Three solves
// of one model: cold; from the first's handle after a bound change (seated
// on its factorization, in the first solve's arrays, pivoting to a new
// optimum); cold again after another. The first two Solutions' X and Duals
// and the second's handle, never used, must be as they were, and that
// handle must still seat on its factorization and reach the optimum.
func TestSolvesShareNoArrays(t *testing.T) {
	const k = pfiThreshold + 20
	m, xs := dualChain(k)
	bound := func(hi float64) {
		for _, x := range xs {
			m.SetBounds(x, 0, hi)
		}
	}
	sol1, err := m.Solve()
	requireOptimal(t, sol1, err)
	saved := [][]float64{slices.Clone(sol1.X), slices.Clone(sol1.Duals)}
	bound(2)
	sol2, err := m.SolveFrom(sol1.Warm())
	requireOptimal(t, sol2, err)
	if !sol2.Stats.FactorReused || sol2.Iters == 0 || !almost(sol2.Objective, 2*k, 1e-9) {
		t.Fatalf("second solve: objective %g in %d iterations, stats %+v; want %d after pivoting on the carried factorization",
			sol2.Objective, sol2.Iters, sol2.Stats, 2*k)
	}
	retained := sol2.Warm()
	if retained.fact.Load() == nil {
		t.Fatal("second solve's handle carries no factorization")
	}
	saved = append(saved, slices.Clone(sol2.X), slices.Clone(sol2.Duals))
	savedHandle := handleSnapshot(retained)

	bound(1)
	sol3, err := m.Solve()
	requireOptimal(t, sol3, err)
	if !almost(sol3.Objective, k, 1e-9) {
		t.Fatalf("third solve: objective %g, want %d", sol3.Objective, k)
	}

	for i, got := range [][]float64{sol1.X, sol1.Duals, sol2.X, sol2.Duals} {
		if !slices.Equal(got, saved[i]) {
			t.Fatalf("solution vector %d changed under later solves", i)
		}
	}
	if !reflect.DeepEqual(handleSnapshot(retained), savedHandle) {
		t.Fatal("the retained, unused handle changed under a later solve")
	}
	got, err := m.SolveFrom(retained)
	requireOptimal(t, got, err)
	if !got.Stats.FactorReused || !almost(got.Objective, k, 1e-9) {
		t.Fatalf("retained handle: objective %g, stats %+v; want a seat on its factorization at %d", got.Objective, got.Stats, k)
	}
}

// TestPricedSeatMatchesRepricedSeat: a seat on the carried factorization
// over unchanged columns and costs keeps the optimum's reduced costs and
// multipliers instead of pricing again, and must be bit for bit the seat
// that prices again — X, Duals, objective and every counter. Two copies of
// each model are solved alike, one handle is made to price again, and both
// models drift alike: the differential harness's RHS and bound drift on
// both cold representations, and random sparse LPs whose bounds shrink and
// whose fixed columns are released upward, so that the primal simplex
// prices the columns the dual froze, after the dual, with the seat's Devex
// weights.
func TestPricedSeatMatchesRepricedSeat(t *testing.T) {
	priced, primal := 0, 0
	compare := func(tag string, m, twin *Model, h, twinH *WarmStart) {
		t.Helper()
		got, gotErr := m.SolveFrom(h)
		want, wantErr := twin.SolveFrom(twinH)
		if (gotErr == nil) != (wantErr == nil) || got.Status != want.Status || got.Stats != want.Stats ||
			!slices.EqualFunc(got.X, want.X, sameBits) || !slices.EqualFunc(got.Duals, want.Duals, sameBits) ||
			!sameBits(got.Objective, want.Objective) {
			t.Fatalf("%s: priced seat %v %+v objective %v; repriced seat %v %+v objective %v",
				tag, got.Status, got.Stats, got.Objective, want.Status, want.Stats, want.Objective)
		}
		if got.Stats.FactorReused {
			priced++
			if got.Iters > got.Stats.DualIters {
				primal++
			}
		}
	}
	// unpriced makes the handle's carried costs differ from its model's in
	// the last bit of one cost, so that matches reports changed costs and
	// the seat prices again; reset then refills the costs from the model,
	// so the seat is otherwise the one that keeps the optimum's prices.
	unpriced := func(sol *Solution) bool {
		f := sol.Warm().fact.Load()
		if f == nil || f.s.nStruct == 0 {
			return false
		}
		f.s.cost[0] = math.Float64frombits(math.Float64bits(f.s.cost[0]) ^ 1)
		return true
	}

	rng := rand.New(rand.NewSource(52))
	for c := 0; c < 4000; c++ {
		p := randomRefProblem(rng)
		m, vars := p.toModel()
		twin, twinVars := p.toModel()
		if c%2 == 0 {
			m.forceRep, twin.forceRep = 2, 2
		}
		sol, err := m.Solve()
		twinSol, twinErr := twin.Solve()
		if err != nil || twinErr != nil || !unpriced(twinSol) {
			continue
		}
		perturbClasses(p, rng, true, true, false)
		applyMutations(m, vars, p)
		applyMutations(twin, twinVars, p)
		compare(fmt.Sprintf("case %d", c), m, twin, sol.Warm(), twinSol.Warm())
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := randomSparseSpec(rng, 90+60*int(seed%3), 60+40*int(seed%3))
		m, twin := sp.build(), sp.build()
		sol, err := m.Solve()
		twinSol, twinErr := twin.Solve()
		if err != nil || twinErr != nil || !unpriced(twinSol) {
			continue
		}
		perturbSpec(rng, sp, m, twin)
		for j := range sp.lo {
			if sp.lo[j] == sp.hi[j] && rng.Intn(2) == 0 {
				m.SetBounds(Var(j), sp.lo[j], Inf)
				twin.SetBounds(Var(j), sp.lo[j], Inf)
			}
		}
		compare(fmt.Sprintf("sparse seed %d", seed), m, twin, sol.Warm(), twinSol.Warm())
	}
	t.Logf("%d priced seats, %d with primal pivots after the dual", priced, primal)
	if priced < 500 || primal < 25 {
		t.Fatalf("only %d priced seats (%d with primal pivots); the drift does not exercise the kept prices", priced, primal)
	}
}

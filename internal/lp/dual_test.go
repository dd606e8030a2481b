package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// requireDualPath asserts what every re-solve that kept its warm basis must
// show: no Phase I (the dual simplex reached feasibility, or the basis was
// feasible already), no repair, and an iteration split that adds up.
func requireDualPath(t *testing.T, tag string, st SolveStats) {
	t.Helper()
	if st.Warm && st.WarmFellBack {
		t.Fatalf("%s: both Warm and WarmFellBack set", tag)
	}
	if st.DualIters < 0 || st.DualIters+st.Phase1Iters > st.Iters {
		t.Fatalf("%s: dual %d + phase1 %d > iters %d", tag, st.DualIters, st.Phase1Iters, st.Iters)
	}
	if st.Warm && (st.Phase1Iters != 0 || st.WarmRepairs != 0) {
		t.Fatalf("%s: warm re-solve ran %d Phase I iterations, %d repairs", tag, st.Phase1Iters, st.WarmRepairs)
	}
}

func basicCount(ws *WarmStart) int {
	n := 0
	for _, stats := range [][]varStatus{ws.colStat, ws.slackStat} {
		for _, st := range stats {
			if st == stBasic {
				n++
			}
		}
	}
	return n
}

// TestWarmResolvePerturbationClasses re-solves from the carried basis after
// each kind of change the TE interval loop makes, one kind at a time, and
// checks the result against the enumerator and a cold solve to 1e-9:
//
//   - rhs-bounds: the old reduced costs keep their signs, so the dual
//     simplex alone must reach the optimum — the primal finish pivots zero
//     times;
//   - objective: costs move together with the right-hand sides, so some
//     nonbasic columns enter with the wrong sign — boxed ones flip, slacks
//     are frozen — and the primal Phase II finishes;
//   - matrix: a fresh model of the same shape with other coefficients (what
//     ffcd's link churn produces): the handle fits, the basis matrix differs.
//
// Even cases crash cold in product form, odd ones dense. Where the matrix is
// unchanged the re-solve keeps the carried factorization, so the dual runs
// on both representations; the matrix class refactors in product form.
func TestWarmResolvePerturbationClasses(t *testing.T) {
	classes := []struct {
		name   string
		mutate func(p *refProblem, rng *rand.Rand)
	}{
		{"rhs-bounds", func(p *refProblem, rng *rand.Rand) {
			for i := range p.rhs {
				p.rhs[i] += float64(rng.Intn(7)-3) / 2
			}
			for j := 0; j < p.n; j++ {
				switch rng.Intn(4) {
				case 0:
					d := float64(rng.Intn(3)-1) / 2
					p.lo[j] += d
					p.hi[j] += d
				case 1:
					// Unpinning a fixed column would free a reduced cost
					// of either sign; the mixed harness covers that.
					if p.hi[j] > p.lo[j] {
						p.hi[j] += float64(rng.Intn(3)) / 2
					}
				case 2:
					p.hi[j] = p.lo[j]
				}
			}
		}},
		{"objective", func(p *refProblem, rng *rand.Rand) {
			for i := range p.rhs {
				p.rhs[i] += float64(rng.Intn(5)-2) / 2
			}
			for j := range p.obj {
				if rng.Intn(2) == 0 {
					p.obj[j] = float64(rng.Intn(9) - 4)
				}
			}
		}},
		{"matrix", func(p *refProblem, rng *rand.Rand) {
			for _, row := range p.rows {
				for j := range row {
					if rng.Intn(3) == 0 {
						row[j] = float64(rng.Intn(5) - 2)
					}
				}
			}
		}},
	}
	for ci, cl := range classes {
		t.Run(cl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2014 + ci)))
			var solved, kept, dualSolves, primalFinishes, infeasible int
			for c := 0; c < 2000; c++ {
				p := randomRefProblem(rng)
				m, vars := p.toModel()
				if c%2 == 0 {
					m.forceRep = 2
				}
				sol, err := m.Solve()
				if err != nil {
					continue
				}
				solved++
				cl.mutate(p, rng)
				if cl.name == "matrix" {
					force := m.forceRep
					m, _ = p.toModel() // same shape, other coefficients
					m.forceRep = force
				} else {
					applyMutations(m, vars, p)
				}
				warmSol, warmErr := m.SolveFrom(sol.Warm())
				checkAgainstRef(t, "warm", p, warmSol, warmErr)
				requireDualPath(t, cl.name, warmSol.Stats)
				if !warmSol.Stats.Warm && !warmSol.Stats.WarmFellBack {
					t.Fatalf("case %d: a fitting handle was neither used nor reported dropped", c)
				}
				coldM, _ := p.toModel()
				coldSol, coldErr := coldM.Solve()
				if (warmErr == nil) != (coldErr == nil) {
					t.Fatalf("case %d: warm status %v vs cold status %v", c, warmSol.Status, coldSol.Status)
				}
				if warmErr != nil {
					// Infeasibility is only ever reported by the cold Phase I.
					if warmSol.Status != Infeasible || !warmSol.Stats.WarmFellBack {
						t.Fatalf("case %d: status %v, fell back %v; want infeasible through the fallback",
							c, warmSol.Status, warmSol.Stats.WarmFellBack)
					}
					infeasible++
					continue
				}
				if d := math.Abs(warmSol.Objective - coldSol.Objective); d > 1e-9*(1+math.Abs(coldSol.Objective)) {
					t.Fatalf("case %d: warm objective %g != cold %g", c, warmSol.Objective, coldSol.Objective)
				}
				st := warmSol.Stats
				if !st.Warm {
					continue
				}
				kept++
				if st.DualIters > 0 {
					dualSolves++
				}
				if st.DualIters > 0 && st.Iters > st.DualIters {
					primalFinishes++
				}
				// (A handle that dropped a basic artificial is padded with a
				// slack, which makes it a different basis; no claim there.)
				if cl.name == "rhs-bounds" && st.Iters != st.DualIters && basicCount(sol.Warm()) == len(p.rows) {
					t.Fatalf("case %d: dual-feasible re-solve needed %d primal pivots after %d dual ones",
						c, st.Iters-st.DualIters, st.DualIters)
				}
			}
			t.Logf("%s: of %d re-solves %d kept the basis (%d with dual pivots, %d of those finished by the primal), %d infeasible",
				cl.name, solved, kept, dualSolves, primalFinishes, infeasible)
			if dualSolves < 20 {
				t.Fatalf("only %d re-solves pivoted in the dual simplex; the class does not exercise it", dualSolves)
			}
			if cl.name == "objective" && primalFinishes == 0 {
				t.Fatal("no re-solve needed the primal finish; frozen/flipped columns are not exercised")
			}
			if cl.name != "objective" && infeasible == 0 {
				t.Fatal("no perturbation made a model infeasible; the fallback verdict is not exercised")
			}
		})
	}
}

// TestWarmInfeasibleBoundsFallBack: tightening bounds until the rows cannot
// be met empties the dual ratio test; the verdict must come from the cold
// Phase I, never as an optimum of some restricted problem.
func TestWarmInfeasibleBoundsFallBack(t *testing.T) {
	for _, force := range []int8{1, 2} {
		m := NewModel()
		m.forceRep = force
		x := m.NewVar("x", 0, 5)
		y := m.NewVar("y", 0, 5)
		m.AddGE(NewExpr().Add(1, x).Add(1, y), 4)
		m.AddLE(NewExpr().Add(1, x).Add(-1, y), 1)
		m.Minimize(NewExpr().Add(2, x).Add(1, y))
		sol, err := m.Solve()
		requireOptimal(t, sol, err)
		m.SetBounds(x, 0, 1)
		m.SetBounds(y, 0, 2)
		got, err := m.SolveFrom(sol.Warm())
		if !errors.Is(err, ErrNotOptimal) || got.Status != Infeasible {
			t.Fatalf("forceRep=%d: status %v, err %v; want infeasible", force, got.Status, err)
		}
		if got.Stats.Warm || !got.Stats.WarmFellBack {
			t.Fatalf("forceRep=%d: infeasible verdict without the cold fallback: %+v", force, got.Stats)
		}
	}
}

// dualChain builds k independent rows x_i + y_i ≤ 5 maximising Σx_i with
// y_i ∈ [2, 10]: at the optimum every x_i is basic at 3. Capping x_i ≤ 2
// afterwards puts all k basic values above their bounds, and the warm
// re-solve needs exactly one dual pivot per row (x_i leaves, its slack
// enters).
func dualChain(k int) (*Model, []Var) {
	m := NewModel()
	xs := make([]Var, k)
	obj := NewExpr()
	for i := range xs {
		xs[i] = m.NewVar("x", 0, 10)
		y := m.NewVar("y", 2, 10)
		m.AddLE(NewExpr().Add(1, xs[i]).Add(1, y), 5)
		obj.Add(1, xs[i])
	}
	m.Maximize(obj)
	return m, xs
}

// TestDualItersCountAgainstBudgets: dual pivots are iterations like any
// other — SolveOpts.MaxIters and Model.MaxIters count them, the checkpoint
// runs before the first one, and a stop inside the dual simplex offers no
// best-so-far point because its iterates are not primal feasible.
func TestDualItersCountAgainstBudgets(t *testing.T) {
	const k = 6
	m, xs := dualChain(k)
	sol, err := m.Solve()
	requireOptimal(t, sol, err)
	for _, x := range xs {
		m.SetBounds(x, 0, 2)
	}

	full, err := m.SolveFrom(sol.Warm())
	requireOptimal(t, full, err)
	requireDualPath(t, "full", full.Stats)
	if st := full.Stats; !st.Warm || st.DualIters != k || st.Iters != k || !almost(full.Objective, 2*k, 1e-9) {
		t.Fatalf("unbudgeted re-solve: objective %g, stats %+v; want %d dual pivots and nothing else", full.Objective, st, k)
	}

	got, err := m.SolveWith(sol.Warm(), SolveOpts{MaxIters: 3})
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != BudgetIters {
		t.Fatalf("err = %v, want BudgetError{Reason: iterations}", err)
	}
	if got.Iters != 3 || got.Stats.DualIters != 3 || got.Stats.Phase1Iters != 0 {
		t.Fatalf("iteration budget 3 ran %d iterations (%d dual, %d phase 1)", got.Iters, got.Stats.DualIters, got.Stats.Phase1Iters)
	}
	if be.Best != nil {
		t.Fatalf("a stop inside the dual simplex offered a 'feasible' point: %v", be.Best.X)
	}

	var calls []int
	got, err = m.SolveWith(sol.Warm(), SolveOpts{
		Deadline: time.Now().Add(-time.Second),
		Hook:     func(iters int) { calls = append(calls, iters) },
	})
	if !errors.As(err, &be) || be.Reason != BudgetDeadline || be.Best != nil {
		t.Fatalf("err = %v, want a deadline stop with no best point", err)
	}
	if got.Iters != 0 || len(calls) != 1 || calls[0] != 0 {
		t.Fatalf("expired deadline: %d iterations, hook calls %v; want a stop before the first dual pivot", got.Iters, calls)
	}

	m.MaxIters = 2
	got, err = m.SolveFrom(sol.Warm())
	if !errors.Is(err, ErrNotOptimal) || got.Status != IterLimit || got.Iters != 2 || got.Stats.DualIters != 2 {
		t.Fatalf("Model.MaxIters = 2: status %v, %d iterations (%d dual), err %v", got.Status, got.Iters, got.Stats.DualIters, err)
	}
}

// TestDualRefactorsOnSchedule runs enough dual pivots for the product-form
// inverse to reinvert mid-loop; the recomputed xB and reduced costs must
// carry the remaining pivots to the same optimum.
func TestDualRefactorsOnSchedule(t *testing.T) {
	const k = 300 // > 2×128 eta appends
	m, xs := dualChain(k)
	sol, err := m.Solve()
	requireOptimal(t, sol, err)
	for _, x := range xs {
		m.SetBounds(x, 0, 2)
	}
	got, err := m.SolveFrom(sol.Warm())
	requireOptimal(t, got, err)
	requireDualPath(t, "chain", got.Stats)
	if st := got.Stats; !st.Warm || st.DualIters != k || st.Iters != k || st.Reinversions < 2 {
		t.Fatalf("stats %+v; want %d dual pivots across at least 2 reinversions", st, k)
	}
	if !almost(got.Objective, 2*k, 1e-9) {
		t.Fatalf("objective %g, want %d", got.Objective, 2*k)
	}
}

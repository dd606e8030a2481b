package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Randomized differential harness: small random LPs (mixed bounds, fixed
// variables, duplicate/degenerate rows) solved by the simplex are checked
// against brute-force vertex enumeration, and warm-started re-solves after
// random RHS/bound/objective perturbations are checked against a cold solve
// of the same perturbed model (and against the enumerator again); dual_test.go
// repeats that one perturbation class at a time, and carry_test.go compares
// a seat on the carried factorization with a refactored one per class. Seeds
// are fixed. forceRep covers both basis representations for the cold crash;
// a warm seat that refactors is product form whatever forceRep says, while
// one that reuses the carried factorization keeps the cold solve's.

// randomRefProblem draws a small LP with all-finite bounds (required by the
// enumerator). Roughly 1 in 6 columns is fixed (lo == hi), which the
// simplex carries but never prices, and 1 in 4 extra rows duplicates an
// earlier row's coefficients to create degenerate vertices.
func randomRefProblem(rng *rand.Rand) *refProblem {
	n := 2 + rng.Intn(3)
	nRows := 1 + rng.Intn(4)
	p := &refProblem{
		n:        n,
		maximize: rng.Intn(2) == 0,
		obj:      make([]float64, n),
		lo:       make([]float64, n),
		hi:       make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.obj[j] = float64(rng.Intn(9) - 4)
		p.lo[j] = float64(rng.Intn(4) - 3)
		if rng.Intn(6) == 0 {
			p.hi[j] = p.lo[j] // fixed variable
		} else {
			p.hi[j] = p.lo[j] + float64(rng.Intn(5))
		}
	}
	for i := 0; i < nRows; i++ {
		var row []float64
		if i > 0 && rng.Intn(4) == 0 {
			row = append([]float64(nil), p.rows[rng.Intn(i)]...)
		} else {
			row = make([]float64, n)
			nz := 0
			for j := 0; j < n; j++ {
				row[j] = float64(rng.Intn(5) - 2)
				if row[j] != 0 {
					nz++
				}
			}
			if nz == 0 {
				row[rng.Intn(n)] = 1
			}
		}
		p.rows = append(p.rows, row)
		p.sense = append(p.sense, Sense(rng.Intn(3)))
		p.rhs = append(p.rhs, float64(rng.Intn(11)-3))
	}
	return p
}

// perturb mutates the problem in place the way the TE interval loop mutates
// its model: RHS drift, bound drift, a link-down's pin (a free column —
// possibly basic in the carried basis — becomes fixed at its lower bound),
// objective drift.
func perturb(p *refProblem, rng *rand.Rand) { perturbClasses(p, rng, true, true, true) }

// perturbClasses applies only the chosen classes of perturb's drift; with
// all three it draws exactly what perturb draws.
func perturbClasses(p *refProblem, rng *rand.Rand, rhs, bounds, obj bool) {
	for i := range p.rhs {
		if rhs && rng.Intn(2) == 0 {
			p.rhs[i] += float64(rng.Intn(5)-2) / 2
		}
	}
	for j := 0; j < p.n; j++ {
		if bounds {
			switch rng.Intn(4) {
			case 0: // shift both bounds
				d := float64(rng.Intn(3)-1) / 2
				p.lo[j] += d
				p.hi[j] += d
			case 1: // widen
				p.hi[j] += float64(rng.Intn(3)) / 2
			case 2: // pin
				p.hi[j] = p.lo[j]
			}
		}
		if obj && rng.Intn(3) == 0 {
			p.obj[j] = float64(rng.Intn(9) - 4)
		}
	}
}

// applyMutations pushes p's current data into a model previously built by
// p.toModel, using only the incremental mutators.
func applyMutations(m *Model, vars []Var, p *refProblem) {
	for i := range p.rhs {
		m.SetRHS(i, p.rhs[i])
	}
	for j, v := range vars {
		m.SetBounds(v, p.lo[j], p.hi[j])
		c := p.obj[j]
		if !p.maximize {
			// toModel sets coefficients via Minimize; SetObjCoef stores the
			// user-direction coefficient, which is the same either way.
			_ = c
		}
		m.SetObjCoef(v, p.obj[j])
	}
}

func checkAgainstRef(t *testing.T, tag string, p *refProblem, sol *Solution, err error) {
	t.Helper()
	refObj, _, refOK := refSolve(p)
	if !refOK {
		if err == nil || sol.Status != Infeasible {
			t.Fatalf("%s: reference says infeasible, simplex says %v (obj %g)", tag, sol.Status, sol.Objective)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: reference optimum %g but simplex failed: %v", tag, refObj, err)
	}
	tol := 1e-7 * (1 + math.Abs(refObj))
	if math.Abs(sol.Objective-refObj) > tol {
		t.Fatalf("%s: objective %g, reference %g (diff %g)", tag, sol.Objective, refObj, sol.Objective-refObj)
	}
	// The returned point must itself be feasible.
	x := make([]float64, p.n)
	copy(x, sol.X)
	if !refFeasible(p, x) {
		t.Fatalf("%s: simplex point %v infeasible", tag, x)
	}
}

func TestRandomDifferentialLPs(t *testing.T) {
	const cases = 500
	rng := rand.New(rand.NewSource(20140817))
	for c := 0; c < cases; c++ {
		p := randomRefProblem(rng)
		m, vars := p.toModel()
		if c%3 == 0 {
			m.forceRep = 2 // cold crash in product form; the rest crash dense
		}
		sol, err := m.Solve()
		checkAgainstRef(t, "cold", p, sol, err)
		if err != nil {
			continue // infeasible problems have no basis to warm-start from
		}

		// Re-solving the identical model from its own basis must terminate
		// immediately: the old basis is feasible and dual-feasible.
		again, err := m.SolveFrom(sol.Warm())
		if err != nil {
			t.Fatalf("case %d: identical warm re-solve failed: %v", c, err)
		}
		if !again.Stats.Warm {
			t.Fatalf("case %d: warm basis not seated on identical re-solve", c)
		}
		if again.Iters > 0 {
			t.Fatalf("case %d: identical warm re-solve took %d iterations", c, again.Iters)
		}
		if math.Abs(again.Objective-sol.Objective) > 1e-7*(1+math.Abs(sol.Objective)) {
			t.Fatalf("case %d: identical warm re-solve objective %g != %g", c, again.Objective, sol.Objective)
		}

		// Perturb RHS/bounds/objective, mutate the model in place, and
		// check the warm re-solve against both a cold solve of a freshly
		// built model and the enumerator.
		perturb(p, rng)
		applyMutations(m, vars, p)
		warmSol, warmErr := m.SolveFrom(sol.Warm())
		checkAgainstRef(t, "warm-perturbed", p, warmSol, warmErr)
		requireDualPath(t, "warm-perturbed", warmSol.Stats)

		coldM, _ := p.toModel()
		coldSol, coldErr := coldM.Solve()
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("case %d: warm status %v vs cold status %v", c, warmSol.Status, coldSol.Status)
		}
		if warmErr == nil {
			if math.Abs(warmSol.Objective-coldSol.Objective) > 1e-9*(1+math.Abs(coldSol.Objective)) {
				t.Fatalf("case %d: warm objective %g != cold %g", c, warmSol.Objective, coldSol.Objective)
			}
		}
	}
}

// TestWarmAcrossStructureChange documents the safety contract: a handle from
// a model with a different shape is ignored, not misapplied.
func TestWarmAcrossStructureChange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomRefProblem(rng)
	m, _ := p.toModel()
	sol, err := m.Solve()
	for err != nil || sol.Warm() == nil { // roll until feasible with a basis
		p = randomRefProblem(rng)
		m, _ = p.toModel()
		sol, err = m.Solve()
	}
	// New variable changes the structure: the old handle must be rejected.
	v := m.NewVar("extra", 0, 1)
	e := NewExpr().Add(1, v)
	m.AddLE(e, 1)
	sol2, err := m.SolveFrom(sol.Warm())
	if err != nil {
		t.Fatalf("re-solve failed: %v", err)
	}
	if sol2.Stats.Warm {
		t.Fatal("stale handle was seated across a structure change")
	}
	if !sol2.Stats.WarmFellBack {
		t.Fatal("stale handle fallback not reported")
	}
}

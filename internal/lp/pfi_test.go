package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestPFIAgainstEnumeration re-runs the vertex-enumeration cross-check with
// the product-form inverse forced on, exercising eta-file FTRAN/BTRAN,
// reinversion, and basis permutation on small problems.
func TestPFIAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(3)
		k := 1 + rng.Intn(4)
		p := &refProblem{n: n, maximize: rng.Intn(2) == 0}
		for j := 0; j < n; j++ {
			lo := float64(rng.Intn(7)) - 3
			hi := lo + float64(rng.Intn(8))
			p.lo = append(p.lo, lo)
			p.hi = append(p.hi, hi)
			p.obj = append(p.obj, float64(rng.Intn(11)-5))
		}
		for i := 0; i < k; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(9) - 4)
			}
			p.rows = append(p.rows, row)
			p.sense = append(p.sense, Sense(rng.Intn(3)))
			p.rhs = append(p.rhs, float64(rng.Intn(21)-10))
		}
		want, _, feasible := refSolve(p)
		m, _ := p.toModel()
		m.forceRep = 2 // force PFI
		sol, err := m.Solve()
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: reference infeasible, PFI simplex %v", trial, sol.Status)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: reference obj %v but PFI simplex failed: %v", trial, want, err)
		}
		if math.Abs(sol.Objective-want) > 1e-5 {
			t.Fatalf("trial %d: PFI obj %v, reference %v", trial, sol.Objective, want)
		}
	}
}

// TestPFIMatchesDenseOnMediumLPs solves identical medium problems with both
// representations and requires matching optima.
func TestPFIMatchesDenseOnMediumLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		build := func() *Model {
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			n, k := 120, 90
			m := NewModel()
			vars := make([]Var, n)
			for j := range vars {
				vars[j] = m.NewVar("v", 0, 1+r.Float64()*9)
			}
			for i := 0; i < k; i++ {
				e := NewExpr()
				for c := 0; c < 5; c++ {
					e.Add(0.2+r.Float64()*2, vars[r.Intn(n)])
				}
				if i%4 == 0 {
					m.AddGE(e, r.Float64()*2)
				} else {
					m.AddLE(e, 4+r.Float64()*25)
				}
			}
			obj := NewExpr()
			for _, v := range vars {
				obj.Add(r.Float64(), v)
			}
			m.Maximize(obj)
			return m
		}
		md := build()
		md.forceRep = 1
		sd, err := md.Solve()
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		mp := build()
		mp.forceRep = 2
		sp, err := mp.Solve()
		if err != nil {
			t.Fatalf("trial %d pfi: %v", trial, err)
		}
		if math.Abs(sd.Objective-sp.Objective) > 1e-5*math.Max(1, math.Abs(sd.Objective)) {
			t.Fatalf("trial %d: dense %v != pfi %v", trial, sd.Objective, sp.Objective)
		}
		_ = rng
	}
}

// TestPFIDualsMatchDense: shadow prices must agree across representations.
func TestPFIDualsMatchDense(t *testing.T) {
	build := func(force int8) (*Solution, []int) {
		m := NewModel()
		x := m.NewVar("x", 0, Inf)
		y := m.NewVar("y", 0, Inf)
		r1 := m.AddLE(NewExpr().Add(2, x).Add(1, y), 10)
		r2 := m.AddLE(NewExpr().Add(1, x).Add(2, y), 10)
		m.Maximize(NewExpr().Add(1, x).Add(1, y))
		m.forceRep = force
		sol, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return sol, []int{r1, r2}
	}
	sd, rows := build(1)
	sp, _ := build(2)
	for _, r := range rows {
		if math.Abs(sd.Duals[r]-sp.Duals[r]) > 1e-6 {
			t.Fatalf("row %d duals differ: dense %v pfi %v", r, sd.Duals[r], sp.Duals[r])
		}
	}
}

// TestPFIRefactorPath drives enough pivots to force reinversion (the
// 128-eta trigger) and checks the solution is still exact.
func TestPFIRefactorPath(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n, k := 400, 300
	m := NewModel()
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = m.NewVar("v", 0, 5)
	}
	type rowRec struct {
		e   *Expr
		rhs float64
	}
	var recs []rowRec
	for i := 0; i < k; i++ {
		e := NewExpr()
		for c := 0; c < 4; c++ {
			e.Add(0.5+r.Float64(), vars[r.Intn(n)])
		}
		rhs := 3 + r.Float64()*10
		m.AddLE(e, rhs)
		recs = append(recs, rowRec{e, rhs})
	}
	obj := NewExpr()
	for _, v := range vars {
		obj.Add(0.1+r.Float64(), v)
	}
	m.Maximize(obj)
	m.forceRep = 2
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iters < 129 {
		t.Skipf("only %d iterations; refactor path not exercised", sol.Iters)
	}
	for i, rec := range recs {
		if v := sol.Violation(rec.e, LE, rec.rhs); v > 1e-6 {
			t.Fatalf("row %d violated by %v after refactors", i, v)
		}
	}
}

// TestWarmSeatIsProductFormAtAnySize: far below pfiThreshold, where the cold
// crash starts from the dense inverse, a warm handle is seated in product
// form — its BasisNnz counts eta-file nonzeros, not m² — and the re-solve
// matches the cold optimum and the enumerator to 1e-9.
func TestWarmSeatIsProductFormAtAnySize(t *testing.T) {
	const k = 40
	m, xs := dualChain(k)
	sol, err := m.Solve()
	requireOptimal(t, sol, err)
	if sol.Stats.BasisNnz != k*k {
		t.Fatalf("cold crash BasisNnz = %d, want the dense inverse's %d", sol.Stats.BasisNnz, k*k)
	}
	for _, x := range xs {
		m.SetBounds(x, 0, 2)
	}
	if s := newState(m, sol.Warm(), SolveOpts{}); !s.stats.Warm {
		t.Fatal("warm handle not seated")
	} else if _, ok := s.rep.(*pfiRep); !ok {
		t.Fatalf("warm seat of %d rows uses %T, want *pfiRep", k, s.rep)
	}
	got, err := m.SolveFrom(sol.Warm())
	requireOptimal(t, got, err)
	requireDualPath(t, "chain", got.Stats)
	if st := got.Stats; !st.Warm || st.DualIters != k || st.BasisNnz >= k*k {
		t.Fatalf("stats %+v; want a warm re-solve of %d dual pivots on an eta file under %d nonzeros", st, k, k*k)
	}
	cold, coldXs := dualChain(k)
	for _, x := range coldXs {
		cold.SetBounds(x, 0, 2)
	}
	coldSol, err := cold.Solve()
	requireOptimal(t, coldSol, err)
	if !almost(got.Objective, coldSol.Objective, 1e-9) || !almost(got.Objective, 2*k, 1e-9) {
		t.Fatalf("warm objective %g, cold %g, want %d", got.Objective, coldSol.Objective, 2*k)
	}

	rng := rand.New(rand.NewSource(260))
	seated := 0
	for c := 0; c < 400; c++ {
		p := randomRefProblem(rng)
		m, vars := p.toModel()
		sol, err := m.Solve()
		if err != nil {
			continue
		}
		perturb(p, rng)
		applyMutations(m, vars, p)
		if s := newState(m, sol.Warm(), SolveOpts{}); s.stats.Warm {
			if _, ok := s.rep.(*pfiRep); !ok {
				t.Fatalf("case %d: warm seat uses %T, want *pfiRep", c, s.rep)
			}
			seated++
		}
		warm, warmErr := m.SolveFrom(sol.Warm())
		refObj, _, feasible := refSolve(p)
		if !feasible {
			if warm.Status != Infeasible {
				t.Fatalf("case %d: reference infeasible, warm re-solve %v", c, warm.Status)
			}
			continue
		}
		coldM, _ := p.toModel()
		coldSol, coldErr := coldM.Solve()
		if warmErr != nil || coldErr != nil {
			t.Fatalf("case %d: reference optimum %g, warm err %v, cold err %v", c, refObj, warmErr, coldErr)
		}
		tol := 1e-9 * (1 + math.Abs(refObj))
		if !almost(warm.Objective, refObj, tol) || !almost(warm.Objective, coldSol.Objective, tol) {
			t.Fatalf("case %d: warm %g, cold %g, reference %g", c, warm.Objective, coldSol.Objective, refObj)
		}
	}
	if seated < 100 {
		t.Fatalf("only %d handles seated; the product-form seat is not exercised", seated)
	}
}

// TestForceDenseCrashAndFallback: forceRep = 1 still selects the dense
// inverse where the cold crash runs — from scratch, and after abortWarm
// unseats a product-form warm basis — even past pfiThreshold.
func TestForceDenseCrashAndFallback(t *testing.T) {
	const k = pfiThreshold + 20
	m, _ := dualChain(k)
	m.forceRep = 1
	if s := newState(m, nil, SolveOpts{}); s.stats.Warm {
		t.Fatal("cold start reported warm")
	} else if _, ok := s.rep.(*denseRep); !ok {
		t.Fatalf("forceRep=1 cold crash uses %T, want *denseRep", s.rep)
	}
	sol, err := m.Solve()
	requireOptimal(t, sol, err)
	// y_0 (column 1) ≥ 6 leaves x_0 + y_0 ≤ 5 unsatisfiable: the dual ratio
	// test comes up empty and the solve falls back to the cold crash.
	m.SetBounds(Var(1), 6, 10)
	s := newState(m, sol.Warm(), SolveOpts{})
	if _, ok := s.rep.(*pfiRep); !s.stats.Warm || !ok {
		t.Fatalf("warm seat: Warm %v, rep %T; want a seated *pfiRep", s.stats.Warm, s.rep)
	}
	if st := s.run(m); st != Infeasible {
		t.Fatalf("status %v, want infeasible", st)
	}
	if !s.stats.WarmFellBack {
		t.Fatal("infeasible verdict without the cold fallback")
	}
	if _, ok := s.rep.(*denseRep); !ok {
		t.Fatalf("forceRep=1 fallback crash uses %T, want *denseRep", s.rep)
	}
}

func benchLargeSparseLP(b *testing.B, force int8) {
	r := rand.New(rand.NewSource(12))
	n, k := 900, 700
	m := NewModel()
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = m.NewVar("v", 0, 5)
	}
	for i := 0; i < k; i++ {
		e := NewExpr()
		for c := 0; c < 4; c++ {
			e.Add(0.5+r.Float64(), vars[r.Intn(n)])
		}
		m.AddLE(e, 3+r.Float64()*10)
	}
	obj := NewExpr()
	for _, v := range vars {
		obj.Add(0.1+r.Float64(), v)
	}
	m.Maximize(obj)
	m.forceRep = force
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexDenseRep vs BenchmarkSimplexPFIRep quantify the
// product-form inverse's advantage on a sparse 700-row basis.
func BenchmarkSimplexDenseRep(b *testing.B) { benchLargeSparseLP(b, 1) }
func BenchmarkSimplexPFIRep(b *testing.B)   { benchLargeSparseLP(b, 2) }

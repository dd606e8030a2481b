package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestFixedVariablesFold(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, Inf)
	f := m.NewVar("f", 3, 3) // fixed
	r := m.AddLE(NewExpr().Add(1, x).Add(2, f), 10)
	m.Maximize(NewExpr().Add(1, x).Add(5, f))
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// x ≤ 10 − 6 = 4; objective 4 + 15 = 19.
	if !almost(sol.Objective, 19, 1e-9) {
		t.Fatalf("objective %v, want 19", sol.Objective)
	}
	if sol.X[f] != 3 {
		t.Fatalf("fixed variable value %v", sol.X[f])
	}
	// Dual of the binding row, fixed column's share folded in: marginal value 1.
	if !almost(sol.Duals[r], 1, 1e-9) {
		t.Fatalf("dual %v, want 1", sol.Duals[r])
	}
}

func TestFixedInfeasibilityDetected(t *testing.T) {
	m := NewModel()
	a := m.NewVar("a", 2, 2)
	b := m.NewVar("b", 3, 3)
	m.AddLE(NewExpr().Add(1, a).Add(1, b), 4) // 5 ≤ 4: impossible
	m.Maximize(NewExpr())
	sol, err := m.Solve()
	if err == nil || sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestVacuousEqualityRow(t *testing.T) {
	m := NewModel()
	a := m.NewVar("a", 2, 2)
	x := m.NewVar("x", 0, 9)
	m.AddEQ(NewExpr().Add(1, a), 2) // vacuous: only the fixed column, 2 = 2
	m.AddLE(NewExpr().Add(1, x), 5)
	m.Maximize(NewExpr().Add(1, x))
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, 5, 1e-9) {
		t.Fatalf("objective %v", sol.Objective)
	}
	if len(sol.Duals) != 2 || sol.Duals[0] != 0 {
		t.Fatalf("vacuous row must have zero dual: %v", sol.Duals)
	}
}

func TestVacuousAllRows(t *testing.T) {
	m := NewModel()
	a := m.NewVar("a", 1, 1)
	x := m.NewVar("x", -2, 7)
	m.AddGE(NewExpr().Add(4, a), 2)
	m.Maximize(NewExpr().Add(3, x))
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, 21, 1e-9) {
		t.Fatalf("objective %v, want 21", sol.Objective)
	}
	// Minimizing instead drives x to its lower bound.
	m.Minimize(NewExpr().Add(3, x))
	sol, err = m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, -6, 1e-9) {
		t.Fatalf("objective %v, want -6", sol.Objective)
	}
}

func TestNoRowsUnbounded(t *testing.T) {
	m := NewModel()
	m.NewVar("fix", 1, 1)
	m.NewVar("x", 0, Inf)
	m.Maximize(NewExpr().Add(1, Var(1)))
	sol, _ := m.Solve()
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

// TestFixedRandomEquivalence: models with a random subset of variables
// fixed through their bounds must solve to the same optimum as a clone
// where the fixing is expressed as an equality row instead.
func TestFixedRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 60; trial++ {
		n, k := 6, 5
		type rowSpec struct {
			coef []float64
			rhs  float64
			sns  Sense
		}
		var rows []rowSpec
		objc := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		fixed := make([]bool, n)
		for j := 0; j < n; j++ {
			lo[j] = float64(rng.Intn(5))
			hi[j] = lo[j] + float64(rng.Intn(6))
			objc[j] = float64(rng.Intn(9) - 4)
			fixed[j] = rng.Intn(3) == 0
		}
		for i := 0; i < k; i++ {
			coef := make([]float64, n)
			for j := range coef {
				coef[j] = float64(rng.Intn(7) - 3)
			}
			rows = append(rows, rowSpec{coef, float64(rng.Intn(30)), Sense(rng.Intn(2))})
		}
		build := func(fixViaBounds bool) *Model {
			m := NewModel()
			vars := make([]Var, n)
			for j := 0; j < n; j++ {
				l, h := lo[j], hi[j]
				if fixed[j] && fixViaBounds {
					l, h = lo[j], lo[j]
				}
				vars[j] = m.NewVar("v", l, h)
			}
			for j := 0; j < n; j++ {
				if fixed[j] && !fixViaBounds {
					m.AddEQ(NewExpr().Add(1, vars[j]), lo[j])
				}
			}
			for _, r := range rows {
				e := NewExpr()
				for j, c := range r.coef {
					e.Add(c, vars[j])
				}
				m.AddConstraint(e, r.sns, r.rhs)
			}
			obj := NewExpr()
			for j, c := range objc {
				obj.Add(c, vars[j])
			}
			m.Maximize(obj)
			return m
		}
		sa, ea := build(true).Solve()  // fixed through lo == hi
		sb, eb := build(false).Solve() // fixed through equality rows
		if (ea == nil) != (eb == nil) {
			t.Fatalf("trial %d: statuses diverge: %v vs %v", trial, sa.Status, sb.Status)
		}
		if ea == nil && math.Abs(sa.Objective-sb.Objective) > 1e-6 {
			t.Fatalf("trial %d: bound-fixed obj %v != reference %v", trial, sa.Objective, sb.Objective)
		}
	}
}

func TestExprHelpers(t *testing.T) {
	e := NewExpr().Add(2, Var(0)).AddConst(1)
	c := e.Clone()
	c.Add(5, Var(1))
	if len(e.Terms) != 1 {
		t.Fatal("Clone shares term storage")
	}
	s := Sum(Var(0), Var(1), Var(2))
	if len(s.Terms) != 3 || s.Terms[1].Coef != 1 {
		t.Fatalf("Sum wrong: %+v", s)
	}
	combined := NewExpr().AddExpr(2, e) // 4x0 + 2
	if combined.Constant != 2 || combined.Terms[0].Coef != 4 {
		t.Fatalf("AddExpr wrong: %+v", combined)
	}
	if NewExpr().AddExpr(0, e).Constant != 0 {
		t.Fatal("AddExpr with zero scale should be a no-op")
	}
	if got := e.String(); got != "2*v0 + 1" {
		t.Fatalf("String = %q", got)
	}
	if got := NewExpr().String(); got != "0" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel()
	x := m.NewVar("rate", 1, 5)
	if m.NumVars() != 1 || m.NumRows() != 0 {
		t.Fatal("counts wrong")
	}
	if lo, hi := m.Bounds(x); lo != 1 || hi != 5 {
		t.Fatal("Bounds wrong")
	}
	if m.VarName(x) != "rate" {
		t.Fatal("VarName wrong")
	}
	m.AddLE(NewExpr().Add(1, x), 4)
	if m.NumRows() != 1 {
		t.Fatal("row count wrong")
	}
	for _, s := range []Sense{LE, GE, EQ, Sense(9)} {
		if s.String() == "" {
			t.Fatal("empty sense string")
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded, IterLimit, Status(9)} {
		if st.String() == "" {
			t.Fatal("empty status string")
		}
	}
}

func TestNewVarPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel().NewVar("bad", 2, 1)
}

func TestSetBoundsPanicsOnBadBounds(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetBounds(x, 3, 2)
}

// TestDenseRefactorPath forces enough pivots on a dense-rep model to hit
// the 256-update reinversion (invertInPlace path).
func TestDenseRefactorPath(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n, k := 200, 150
	m := NewModel()
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = m.NewVar("v", 0, 3)
	}
	for i := 0; i < k; i++ {
		e := NewExpr()
		for c := 0; c < 5; c++ {
			e.Add(0.3+r.Float64(), vars[r.Intn(n)])
		}
		m.AddLE(e, 2+r.Float64()*8)
	}
	obj := NewExpr()
	for _, v := range vars {
		obj.Add(r.Float64(), v)
	}
	m.Maximize(obj)
	m.forceRep = 1
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iters <= 256 {
		t.Skipf("only %d iterations; dense refactor not exercised", sol.Iters)
	}
}

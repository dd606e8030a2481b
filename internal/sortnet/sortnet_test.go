package sortnet

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ffc/internal/lp"
)

// emitters are the three encodings under test.
var emitters = []struct {
	name string
	emit Emitter
}{{"bubble", Bubble}, {"compact", Compact}, {"subsets", Subsets}}

// fixedExprs creates one LP variable per value, fixed by bounds, and
// returns expressions referencing them.
func fixedExprs(m *lp.Model, values []float64) []*lp.Expr {
	es := make([]*lp.Expr, len(values))
	for i, v := range values {
		x := m.NewVar("in", v, v)
		es[i] = lp.NewExpr().Add(1, x)
	}
	return es
}

// epigraph emits the bound over exprs with a fresh free variable t on the
// other side of every row: t ≥ e for each row(e) when largest, t ≤ e
// otherwise. Minimising (maximising) t then yields the encoded sum of the
// k largest (smallest) exprs, whichever emitter wrote the rows.
func epigraph(m *lp.Model, emit Emitter, exprs []*lp.Expr, k int, largest bool) lp.Var {
	t := m.NewVar("t", -lp.Inf, lp.Inf)
	emit(m, exprs, k, largest, "e", func(e *lp.Expr) {
		row := lp.NewExpr().Add(1, t).AddExpr(-1, e)
		if largest {
			m.AddGE(row, 0)
		} else {
			m.AddLE(row, 0)
		}
	})
	return t
}

// solveEpigraph optimises epigraph's t over pinned inputs: minimised for
// the largest-k bound, maximised for the smallest-k one.
func solveEpigraph(t *testing.T, emit Emitter, values []float64, k int, largest bool) float64 {
	t.Helper()
	m := lp.NewModel()
	v := epigraph(m, emit, fixedExprs(m, values), k, largest)
	if largest {
		m.Minimize(lp.NewExpr().Add(1, v))
	} else {
		m.Maximize(lp.NewExpr().Add(1, v))
	}
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("values %v, k %d, largest %v: %v", values, k, largest, err)
	}
	return sol.Objective
}

func topMSum(values []float64, M int) float64 {
	s := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	var sum float64
	for i := 0; i < M && i < len(s); i++ {
		sum += s[i]
	}
	return sum
}

func bottomMSum(values []float64, M int) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var sum float64
	for i := 0; i < M && i < len(s); i++ {
		sum += s[i]
	}
	return sum
}

// TestLargestSumExactOnConstants: minimizing the encoded sum over fixed
// inputs must recover exactly the true top-M sum (every encoding is tight).
func TestLargestSumExactOnConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round(rng.Float64()*100) / 10
		}
		want := topMSum(vals, M)
		for _, enc := range emitters {
			if got := solveEpigraph(t, enc.emit, vals, M, true); math.Abs(got-want) > 1e-6 {
				t.Fatalf("trial %d %s: min Σtop%d = %v, want %v (vals %v)", trial, enc.name, M, got, want, vals)
			}
		}
	}
}

func TestSmallestSumExactOnConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round(rng.Float64()*100) / 10
		}
		want := bottomMSum(vals, M)
		for _, enc := range emitters {
			if got := solveEpigraph(t, enc.emit, vals, M, false); math.Abs(got-want) > 1e-6 {
				t.Fatalf("trial %d %s: max Σbottom%d = %v, want %v (vals %v)", trial, enc.name, M, got, want, vals)
			}
		}
	}
}

// soundness checks, for every encoding, that the bound rows e ≤ B (e ≥ B
// for smallest) are feasible at B = the true order-statistic sum and
// infeasible half a unit past it.
func soundness(t *testing.T, seed int64, largest bool) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(50))
		}
		// slack points from the true sum into the feasible side.
		want, sense, slack := topMSum(vals, M), lp.LE, 1.0
		if !largest {
			want, sense, slack = bottomMSum(vals, M), lp.GE, -1
		}
		for _, enc := range emitters {
			build := func(bound float64) (*lp.Solution, error) {
				m := lp.NewModel()
				enc.emit(m, fixedExprs(m, vals), M, largest, "b", func(e *lp.Expr) {
					m.AddConstraint(e, sense, bound)
				})
				m.Maximize(lp.NewExpr())
				return m.Solve()
			}
			if _, err := build(want + slack*1e-9); err != nil {
				t.Fatalf("trial %d %s: bound = %v should be feasible: %v", trial, enc.name, want, err)
			}
			if sol, err := build(want - slack/2); err == nil || sol.Status != lp.Infeasible {
				t.Fatalf("trial %d %s: bound past %v should be infeasible, got %v", trial, enc.name, want, sol.Status)
			}
		}
	}
}

// TestLargestSumSoundness: the rows Sum ≤ B must be feasible exactly when
// B ≥ true top-M sum.
func TestLargestSumSoundness(t *testing.T) { soundness(t, 13, true) }

func TestSmallestSumSoundness(t *testing.T) { soundness(t, 14, false) }

// embedded solves max Σxᵢ s.t. xᵢ ≤ caps[i] and Σ top-M xᵢ ≤ B with one
// encoding: the inputs are decision variables, not constants.
func embedded(t *testing.T, emit Emitter, caps []float64, M int, B float64) float64 {
	t.Helper()
	m := lp.NewModel()
	exprs := make([]*lp.Expr, len(caps))
	obj := lp.NewExpr()
	for i, c := range caps {
		x := m.NewVar("x", 0, c)
		exprs[i] = lp.NewExpr().Add(1, x)
		obj.Add(1, x)
	}
	emit(m, exprs, M, true, "t", func(e *lp.Expr) { m.AddLE(e, B) })
	m.Maximize(obj)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return sol.Objective
}

// TestEmbeddedOptimization: the encoding must not distort an optimization
// where the inputs are decision variables. max Σxᵢ s.t. xᵢ ≤ cap and
// Σ top-M xᵢ ≤ B has optimum n·min(cap, B/M).
func TestEmbeddedOptimization(t *testing.T) {
	for _, enc := range []struct {
		name string
		emit Emitter
	}{{"sortnet", Bubble}, {"compact", Compact}, {"subsets", Subsets}} {
		t.Run(enc.name, func(t *testing.T) {
			const (
				n   = 6
				M   = 2
				cap = 10.0
				B   = 14.0
			)
			caps := []float64{cap, cap, cap, cap, cap, cap}
			want := n * math.Min(cap, B/M)
			if got := embedded(t, enc.emit, caps, M, B); math.Abs(got-want) > 1e-6 {
				t.Fatalf("objective = %v, want %v", got, want)
			}
		})
	}
}

// TestEncodingsAgree: all three encodings must yield the same optima on
// random embedded problems.
func TestEncodingsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		M := 1 + rng.Intn(n)
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 1 + rng.Float64()*9
		}
		B := rng.Float64() * 20
		ref := embedded(t, Bubble, caps, M, B)
		for _, enc := range emitters[1:] {
			if got := embedded(t, enc.emit, caps, M, B); math.Abs(got-ref) > 1e-5 {
				t.Fatalf("trial %d: bubble %v != %s %v", trial, ref, enc.name, got)
			}
		}
	}
}

// TestBottomKCompactMatchesSmallestSum: Compact's smallest-k twin (the
// negated s and t) lower-bounds the bottom-M sum tightly.
func TestBottomKCompactMatchesSmallestSum(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(30))
		}
		want := bottomMSum(vals, M)
		if got := solveEpigraph(t, Compact, vals, M, false); math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: compact bottom-M max %v, want %v (vals %v)", trial, got, want, vals)
		}
	}
}

// TestZeroAndFullM: k = 0 asks for one row over an empty expression and
// nothing else; k beyond len clamps to len (the sum of all).
func TestZeroAndFullM(t *testing.T) {
	for _, enc := range emitters {
		m := lp.NewModel()
		es := fixedExprs(m, []float64{5, 3, 9})
		var rows []*lp.Expr
		vars, cons := enc.emit(m, es, 0, true, "z", func(e *lp.Expr) { rows = append(rows, e) })
		if vars != 0 || cons != 1 || len(rows) != 1 || len(rows[0].Terms) != 0 || m.NumVars() != 3 || m.NumRows() != 0 {
			t.Fatalf("%s: k=0 gave %d vars, %d cons, rows %v", enc.name, vars, cons, rows)
		}
		if got := solveEpigraph(t, enc.emit, []float64{5, 3, 9}, 10, true); math.Abs(got-17) > 1e-6 {
			t.Fatalf("%s: Σ all = %v, want 17", enc.name, got)
		}
	}
}

// TestConstraintCountsLinearInKN: the paper's headline, O(k·n) constraints
// for the partial network, where explicit subsets need C(n,k).
func TestConstraintCountsLinearInKN(t *testing.T) {
	for _, tc := range []struct{ n, M int }{{10, 1}, {10, 3}, {40, 3}} {
		m := lp.NewModel()
		vals := make([]float64, tc.n)
		vars, cons := Bubble(m, fixedExprs(m, vals), tc.M, true, "c", func(*lp.Expr) {})
		maxCons := 3*tc.M*tc.n + 1 // 3 per compare-swap, ≤ n per pass, and the bound row
		if cons > maxCons {
			t.Fatalf("n=%d M=%d: %d constraints > bound %d", tc.n, tc.M, cons, maxCons)
		}
		if vars > 2*tc.M*tc.n {
			t.Fatalf("n=%d M=%d: %d vars > bound %d", tc.n, tc.M, vars, 2*tc.M*tc.n)
		}
	}
	m := lp.NewModel()
	if _, cons := Subsets(m, fixedExprs(m, make([]float64, 10)), 3, true, "s", func(*lp.Expr) {}); cons != 120 {
		t.Fatalf("Subsets(10, 3) asked for %d rows, want C(10,3) = 120", cons)
	}
}

// TestRankedExpressions: each ranked wire of the bubble network
// individually over-approximates the j-th largest value when minimized.
func TestRankedExpressions(t *testing.T) {
	vals := []float64{4, 9, 1, 7}
	m := lp.NewModel()
	ranked, _ := network(m, fixedExprs(m, vals), 3, true, "r")
	// Individual rank variables are only pinned under lexicographic
	// minimization; steeply decreasing weights emulate it.
	obj := lp.NewExpr()
	for j, e := range ranked {
		obj.AddExpr(math.Pow(100, float64(len(ranked)-j)), e)
	}
	m.Minimize(obj)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{9, 7, 4}
	for j, e := range ranked {
		if got := sol.EvalExpr(e); math.Abs(got-want[j]) > 1e-6 {
			t.Fatalf("rank %d = %v, want %v", j, got, want[j])
		}
	}
}

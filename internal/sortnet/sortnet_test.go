package sortnet

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ffc/internal/lp"
)

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

// TestLargestSumExactOnConstants: minimizing the encoded Sum over fixed
// inputs must recover exactly the true top-M sum (the encoding is tight).
func TestLargestSumExactOnConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round(rng.Float64()*100) / 10
		}
		m := lp.NewModel()
		res := LargestSum(m, fixedExprs(m, vals), M, "top")
		m.Minimize(res.Sum)
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := topMSum(vals, M)
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: min Σtop%d = %v, want %v (vals %v)", trial, M, sol.Objective, want, vals)
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
		m := lp.NewModel()
		res := SmallestSum(m, fixedExprs(m, vals), M, "bot")
		m.Maximize(res.Sum)
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bottomMSum(vals, M)
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: max Σbottom%d = %v, want %v (vals %v)", trial, M, sol.Objective, want, vals)
		}
	}
}

// TestLargestSumSoundness: the constraint Sum ≤ B must be feasible exactly
// when B ≥ true top-M sum.
func TestLargestSumSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(50))
		}
		want := topMSum(vals, M)

		build := func(bound float64) (*lp.Solution, error) {
			m := lp.NewModel()
			res := LargestSum(m, fixedExprs(m, vals), M, "top")
			m.AddLE(res.Sum, bound)
			m.Maximize(lp.NewExpr())
			return m.Solve()
		}
		if _, err := build(want + 1e-9); err != nil {
			t.Fatalf("trial %d: bound = topM %v should be feasible: %v", trial, want, err)
		}
		if sol, err := build(want - 0.5); err == nil || sol.Status != lp.Infeasible {
			t.Fatalf("trial %d: bound below topM %v should be infeasible, got %v", trial, want, sol.Status)
		}
	}
}

func TestSmallestSumSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(50))
		}
		want := bottomMSum(vals, M)
		build := func(bound float64) (*lp.Solution, error) {
			m := lp.NewModel()
			res := SmallestSum(m, fixedExprs(m, vals), M, "bot")
			m.AddGE(res.Sum, bound)
			m.Maximize(lp.NewExpr())
			return m.Solve()
		}
		if _, err := build(want - 1e-9); err != nil {
			t.Fatalf("trial %d: bound = bottomM %v should be feasible: %v", trial, want, err)
		}
		if sol, err := build(want + 0.5); err == nil || sol.Status != lp.Infeasible {
			t.Fatalf("trial %d: bound above bottomM %v should be infeasible, got %v", trial, want, sol.Status)
		}
	}
}

// TestEmbeddedOptimization: the encoding must not distort an optimization
// where the inputs are decision variables. max Σxᵢ s.t. xᵢ ≤ cap and
// Σ top-M xᵢ ≤ B has optimum n·min(cap, B/M).
func TestEmbeddedOptimization(t *testing.T) {
	for _, enc := range []struct {
		name string
		fn   func(*lp.Model, []*lp.Expr, int, string) Result
	}{
		{"sortnet", LargestSum},
		{"compact", TopKCompact},
	} {
		t.Run(enc.name, func(t *testing.T) {
			const (
				n   = 6
				M   = 2
				cap = 10.0
				B   = 14.0
			)
			m := lp.NewModel()
			exprs := make([]*lp.Expr, n)
			obj := lp.NewExpr()
			for i := 0; i < n; i++ {
				x := m.NewVar("x", 0, cap)
				exprs[i] = lp.NewExpr().Add(1, x)
				obj.Add(1, x)
			}
			res := enc.fn(m, exprs, M, "t")
			m.AddLE(res.Sum, B)
			m.Maximize(obj)
			sol, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			want := n * math.Min(cap, B/M)
			if math.Abs(sol.Objective-want) > 1e-6 {
				t.Fatalf("objective = %v, want %v", sol.Objective, want)
			}
		})
	}
}

// TestEncodingsAgree: sorting-network and compact encodings must yield the
// same optima on random embedded problems.
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
		solveWith := func(fn func(*lp.Model, []*lp.Expr, int, string) Result) float64 {
			m := lp.NewModel()
			exprs := make([]*lp.Expr, n)
			obj := lp.NewExpr()
			for i := 0; i < n; i++ {
				x := m.NewVar("x", 0, caps[i])
				exprs[i] = lp.NewExpr().Add(1, x)
				obj.Add(1, x)
			}
			res := fn(m, exprs, M, "t")
			m.AddLE(res.Sum, B)
			m.Maximize(obj)
			sol, err := m.Solve()
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return sol.Objective
		}
		a := solveWith(LargestSum)
		b := solveWith(TopKCompact)
		if math.Abs(a-b) > 1e-5 {
			t.Fatalf("trial %d: sortnet %v != compact %v", trial, a, b)
		}
	}
}

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
		m := lp.NewModel()
		res := BottomKCompact(m, fixedExprs(m, vals), M, "b")
		m.Maximize(res.Sum)
		sol, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: compact bottom-M max %v, want %v (vals %v)", trial, sol.Objective, want, vals)
		}
	}
}

func TestZeroAndFullM(t *testing.T) {
	m := lp.NewModel()
	es := fixedExprs(m, []float64{5, 3, 9})
	if r := LargestSum(m, es, 0, "z"); len(r.Ranked) != 0 || len(r.Sum.Terms) != 0 {
		t.Fatal("M=0 should produce an empty result")
	}
	// M beyond len clamps to len: sum of all.
	r := LargestSum(m, es, 10, "all")
	m.Minimize(r.Sum)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-17) > 1e-6 {
		t.Fatalf("Σ all = %v, want 17", sol.Objective)
	}
}

func TestConstraintCountsLinearInKN(t *testing.T) {
	// The paper's headline: O(k·n) constraints for the partial network.
	for _, tc := range []struct{ n, M int }{{10, 1}, {10, 3}, {40, 3}} {
		m := lp.NewModel()
		vals := make([]float64, tc.n)
		res := LargestSum(m, fixedExprs(m, vals), tc.M, "c")
		maxCons := 3 * tc.M * tc.n // 3 constraints per compare-swap, ≤ n per pass
		if res.Constraints > maxCons {
			t.Fatalf("n=%d M=%d: %d constraints > bound %d", tc.n, tc.M, res.Constraints, maxCons)
		}
		if res.Vars > 2*tc.M*tc.n {
			t.Fatalf("n=%d M=%d: %d vars > bound %d", tc.n, tc.M, res.Vars, 2*tc.M*tc.n)
		}
	}
}

// TestRankedExpressions: Ranked[j] individually over-approximates the j-th
// largest value when minimized.
func TestRankedExpressions(t *testing.T) {
	vals := []float64{4, 9, 1, 7}
	m := lp.NewModel()
	res := LargestSum(m, fixedExprs(m, vals), 3, "r")
	// Individual rank variables are only pinned under lexicographic
	// minimization; steeply decreasing weights emulate it.
	obj := lp.NewExpr()
	for j, e := range res.Ranked {
		obj.AddExpr(math.Pow(100, float64(len(res.Ranked)-j)), e)
	}
	m.Minimize(obj)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{9, 7, 4}
	for j, e := range res.Ranked {
		if got := sol.EvalExpr(e); math.Abs(got-want[j]) > 1e-6 {
			t.Fatalf("rank %d = %v, want %v", j, got, want[j])
		}
	}
}

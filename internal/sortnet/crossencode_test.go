package sortnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ffc/internal/lp"
)

// Cross-encoding property tests: the three emitters (the paper's partial
// bubble network, the compact CVaR-style dual and explicit subsets) and a
// generic LP encoding of any full comparator network (here Batcher's
// odd-even merge sort) must all produce the SAME largest-M (and smallest-M)
// bound on identical inputs.
// Inputs are pinned via lo == hi variable bounds so every model's optimum
// is the exact order statistic, which in turn makes disagreement between
// encodings impossible to miss.

// encodeNetworkSum turns an arbitrary ascending comparator network into LP
// constraints via the same compare-swap operator the paper's encoding uses,
// then returns the sum of the top (largest=true) or bottom M wires.
func encodeNetworkSum(m *lp.Model, values []float64, net Network, M int, largest bool) *lp.Expr {
	wires := fixedExprs(m, values)
	for ci, c := range net {
		if largest {
			hi, lo := compareSwap(m, wires[c.A], wires[c.B], fmt.Sprintf("nw.c%d", ci), true)
			wires[c.A], wires[c.B] = lo, hi // larger value sinks to B
		} else {
			mn, rest := compareSwap(m, wires[c.A], wires[c.B], fmt.Sprintf("nw.c%d", ci), false)
			wires[c.A], wires[c.B] = mn, rest // smaller value rises to A
		}
	}
	n := len(values)
	sum := lp.NewExpr()
	if largest {
		for i := n - M; i < n; i++ {
			sum.AddExpr(1, wires[i])
		}
	} else {
		for i := 0; i < M; i++ {
			sum.AddExpr(1, wires[i])
		}
	}
	return sum
}

// crossBounds optimizes the largest-M (or smallest-M) bound of every
// emitter, through its epigraph, and of the Batcher network toward the
// true value, and returns each optimum by encoding name.
func crossBounds(t *testing.T, tag string, vals []float64, M int, largest bool) map[string]float64 {
	t.Helper()
	got := map[string]float64{}
	for _, enc := range emitters {
		got[enc.name] = solveEpigraph(t, enc.emit, vals, M, largest)
	}
	m := lp.NewModel()
	sum := encodeNetworkSum(m, vals, OddEvenMergeSort(len(vals)), M, largest)
	if largest {
		m.Minimize(sum)
	} else {
		m.Maximize(sum)
	}
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("%s/batcher: %v", tag, err)
	}
	got["batcher"] = sol.Objective
	return got
}

func TestCrossEncodingsAgreeLargest(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		M    int
	}{
		{"fig8-walkthrough", []float64{3, 1, 4, 1, 5}, 2},
		{"all-equal", []float64{2, 2, 2, 2}, 3},
		{"negative-mix", []float64{-3, 7, 0, -1, 2, 5}, 4},
		{"single", []float64{9, -9}, 1},
		{"take-all", []float64{1, 2, 3}, 3},
	}
	rng := rand.New(rand.NewSource(443))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round((rng.Float64()*20-10)*10) / 10
		}
		cases = append(cases, struct {
			name string
			vals []float64
			M    int
		}{fmt.Sprintf("seeded-%d", trial), vals, 1 + rng.Intn(n)})
	}
	for _, tc := range cases {
		truth := topMSum(tc.vals, tc.M)
		for name, got := range crossBounds(t, tc.name, tc.vals, tc.M, true) {
			if math.Abs(got-truth) > 1e-7*(1+math.Abs(truth)) {
				t.Errorf("%s/%s: bound %g, true top-%d sum %g", tc.name, name, got, tc.M, truth)
			}
		}
	}
}

func TestCrossEncodingsAgreeSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(444))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round((rng.Float64()*20-10)*10) / 10
		}
		tag := fmt.Sprintf("seeded-%d", trial)
		truth := bottomMSum(vals, M)
		for name, got := range crossBounds(t, tag, vals, M, false) {
			if math.Abs(got-truth) > 1e-7*(1+math.Abs(truth)) {
				t.Errorf("%s/%s: bound %g, true bottom-%d sum %g", tag, name, got, M, truth)
			}
		}
	}
}

// TestCrossEncodingWarmPerturbed re-solves a largest-M model with perturbed
// pinned inputs from the previous basis and checks the optimum still equals
// the recomputed order statistic — the emitters' rows are exactly the
// structures the warm-started TE re-solves carry between intervals.
func TestCrossEncodingWarmPerturbed(t *testing.T) {
	rng := rand.New(rand.NewSource(445))
	for trial := 0; trial < 25; trial++ {
		enc := emitters[trial%len(emitters)]
		n := 3 + rng.Intn(4)
		M := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round(rng.Float64()*100) / 10
		}
		m := lp.NewModel()
		ins := make([]lp.Var, n)
		es := make([]*lp.Expr, n)
		for i, v := range vals {
			ins[i] = m.NewVar("in", v, v)
			es[i] = lp.NewExpr().Add(1, ins[i])
		}
		m.Minimize(lp.NewExpr().Add(1, epigraph(m, enc.emit, es, M, true)))
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, enc.name, err)
		}
		if math.Abs(sol.Objective-topMSum(vals, M)) > 1e-7 {
			t.Fatalf("trial %d %s: cold bound %g != %g", trial, enc.name, sol.Objective, topMSum(vals, M))
		}
		for step := 0; step < 3; step++ {
			for i := range vals {
				if rng.Intn(2) == 0 {
					vals[i] = math.Round(rng.Float64()*100) / 10
					m.SetBounds(ins[i], vals[i], vals[i])
				}
			}
			sol, err = m.SolveFrom(sol.Warm())
			if err != nil {
				t.Fatalf("trial %d %s step %d: %v", trial, enc.name, step, err)
			}
			want := topMSum(vals, M)
			if math.Abs(sol.Objective-want) > 1e-7*(1+math.Abs(want)) {
				t.Fatalf("trial %d %s step %d: warm bound %g, want %g", trial, enc.name, step, sol.Objective, want)
			}
		}
	}
}

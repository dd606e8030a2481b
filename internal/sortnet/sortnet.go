// Package sortnet encodes "bounded M-sum" constraints into linear programs,
// the core constraint-reduction technique of the FFC paper (§4.4).
//
// The bounded M-sum problem asks that the sum of any M out of N quantities
// stay below a bound B. Naively this is C(N,M) constraints; all of them hold
// iff the sum of the *largest* M quantities is ≤ B (symmetrically, "any M
// sum to ≥ B" iff the smallest M do). An Emitter writes one such bound into
// a model and hands the caller, through a row callback, the expression(s) to
// compare against B. Three emitters share the signature:
//
//   - Bubble, the paper's partial bubble-sort network (Algorithms 1 and 2):
//     O(N·M) auxiliaries and rows, one row callback.
//   - Compact, the top-k dual (Σ largest-M nᵢ ≤ B ⟺ ∃s, tᵢ ≥ 0:
//     M·s + Σtᵢ ≤ B, tᵢ ≥ nᵢ − s): N+1 auxiliaries, N rows, one row
//     callback. It is what production solves use (core.Compact).
//   - Subsets, the explicit enumeration: no auxiliaries, one row callback
//     per M-subset — the paper's Table 2 ">12 hours" contrast.
//
// In Bubble, pass j extracts (an over-approximation of) the j-th largest
// value. Each compare-swap on wires (x, y) introduces hi, lo with
//
//	hi ≥ x,  hi ≥ y,  hi + lo = x + y,
//
// which is the paper's 2·hi = x + y + |x−y| encoding after eliminating the
// absolute-value auxiliary (|x−y| = 2·hi − x − y ≥ ±(x−y)). Soundness: hi
// upper-bounds max(x,y) while the pair conserves the sum, so any slack an
// adversarial solution adds to hi is exactly removed from lo and cannot
// reduce the final Σyⱼ.
//
// A full Batcher odd-even merge sorting network (network_test.go) is kept
// as a test oracle for network construction.
package sortnet

import (
	"fmt"

	"ffc/internal/lp"
	"ffc/internal/obs"
)

// Encoding-size counters: per-process totals of what the encoders emit,
// split by technique so a regression in the O(N·M) advantage of the
// network over naive enumeration shows up directly in -stats output.
var (
	obsNetEncodings   = obs.NewCounter("sortnet.network.encodings")
	obsNetComparators = obs.NewCounter("sortnet.network.comparators")
	obsNetVars        = obs.NewCounter("sortnet.network.vars")
	obsNetCons        = obs.NewCounter("sortnet.network.constraints")
	obsCmpEncodings   = obs.NewCounter("sortnet.compact.encodings")
	obsCmpVars        = obs.NewCounter("sortnet.compact.vars")
	obsCmpCons        = obs.NewCounter("sortnet.compact.constraints")
)

// Emitter adds to m the auxiliaries a bounded M-sum over exprs needs and
// calls row once per constraint the bound takes, passing an expression e:
// with largest, every feasible assignment has e ≥ the sum of the k largest
// exprs (for use on the left of a ≤ row); otherwise e ≤ the sum of the k
// smallest (left of a ≥ row, Eqn 15). The caller emits each row itself.
// The emitter clamps k to [0, len(exprs)]; at k = 0 it calls row once with
// an empty expression. It returns the auxiliary variables it added and the
// constraints, counting one per row call.
//
// Inputs are assumed bounded below in the model (the usual case: FFC inputs
// are non-negative traffic quantities); auxiliaries that stand for input
// values are free variables, so negative inputs are handled too.
type Emitter func(m *lp.Model, exprs []*lp.Expr, k int, largest bool, name string, row func(*lp.Expr)) (vars, cons int)

func clamp(k, n int) int { return max(0, min(k, n)) }

// Bubble emits the partial bubble network, and row receives the sum of its
// k ranked outputs.
func Bubble(m *lp.Model, exprs []*lp.Expr, k int, largest bool, name string, row func(*lp.Expr)) (vars, cons int) {
	k = clamp(k, len(exprs))
	if k == 0 {
		row(lp.NewExpr())
		return 0, 1
	}
	ranked, comparators := network(m, exprs, k, largest, name)
	// 2 vars and 3 rows per compare-swap; k = N ends on a single wire,
	// bound to one variable by one row.
	vars, cons = 2*comparators, 3*comparators
	if k == len(exprs) {
		vars, cons = vars+1, cons+1
	}
	obsNetEncodings.Inc()
	obsNetComparators.Add(int64(comparators))
	obsNetVars.Add(int64(vars))
	obsNetCons.Add(int64(cons))
	sum := lp.NewExpr()
	for _, e := range ranked {
		sum.AddExpr(1, e)
	}
	row(sum)
	return vars, cons + 1
}

// network runs k passes of the partial bubble sort (Algorithms 1 and 2 of
// the paper) over exprs, 0 < k ≤ len(exprs), and returns an expression per
// rank and the compare-swaps it emitted.
func network(m *lp.Model, exprs []*lp.Expr, k int, largest bool, name string) (ranked []*lp.Expr, comparators int) {
	wires := exprs
	for pass := 0; pass < k; pass++ {
		if len(wires) == 1 {
			// Single wire left: it is its own extremum; bind it to a
			// fresh variable to keep the Ranked contract (one var/rank).
			y := m.NewVar(fmt.Sprintf("%s.y%d", name, pass), negInf(), lp.Inf)
			if largest {
				m.AddGE(lp.NewExpr().Add(1, y).AddExpr(-1, wires[0]), 0)
			} else {
				m.AddLE(lp.NewExpr().Add(1, y).AddExpr(-1, wires[0]), 0)
			}
			return append(ranked, lp.NewExpr().Add(1, y)), comparators
		}
		// One bubble pass: a chain of compare-swaps carries the running
		// extremum through the array; the losers feed the next pass.
		cur := wires[0]
		losers := make([]*lp.Expr, 0, len(wires)-1)
		for i := 1; i < len(wires); i++ {
			var lo *lp.Expr
			cur, lo = compareSwap(m, cur, wires[i], fmt.Sprintf("%s.p%d.c%d", name, pass, i), largest)
			losers = append(losers, lo)
		}
		comparators += len(wires) - 1
		ranked = append(ranked, cur)
		wires = losers
	}
	return ranked, comparators
}

// compareSwap emits one compare-swap operator. For largest=true, hi is an
// over-approximation of max(x, y) and lo the complementary wire; for
// largest=false the roles flip (hi under-approximates min).
func compareSwap(m *lp.Model, x, y *lp.Expr, name string, largest bool) (hi, lo *lp.Expr) {
	vh := m.NewVar(name+".h", negInf(), lp.Inf)
	vl := m.NewVar(name+".l", negInf(), lp.Inf)
	he := lp.NewExpr().Add(1, vh)
	le := lp.NewExpr().Add(1, vl)
	if largest {
		// vh ≥ x, vh ≥ y
		m.AddGE(lp.NewExpr().Add(1, vh).AddExpr(-1, x), 0)
		m.AddGE(lp.NewExpr().Add(1, vh).AddExpr(-1, y), 0)
	} else {
		// vh ≤ x, vh ≤ y
		m.AddLE(lp.NewExpr().Add(1, vh).AddExpr(-1, x), 0)
		m.AddLE(lp.NewExpr().Add(1, vh).AddExpr(-1, y), 0)
	}
	// vh + vl = x + y (sum conservation)
	m.AddEQ(lp.NewExpr().Add(1, vh).Add(1, vl).AddExpr(-1, x).AddExpr(-1, y), 0)
	return he, le
}

func negInf() float64 { return -lp.Inf }

// Compact emits the compact dual encoding, the classic exact LP
// representation of the sum of the k largest (CVaR-style); row receives
//
//	k·s + Σ tᵢ   with  tᵢ ≥ exprᵢ − s,  tᵢ ≥ 0,  s free,
//
// an upper bound on that sum. The smallest-k twin negates s and every t:
// k·s − Σ tᵢ with tᵢ ≥ s − exprᵢ lower-bounds the sum of the k smallest.
// It uses N+1 variables and N constraints versus the network's O(N·k).
func Compact(m *lp.Model, exprs []*lp.Expr, k int, largest bool, name string, row func(*lp.Expr)) (vars, cons int) {
	k = clamp(k, len(exprs))
	if k == 0 {
		row(lp.NewExpr())
		return 0, 1
	}
	sign := 1.0
	if !largest {
		sign = -1
	}
	s := m.NewVar(name+".s", negInf(), lp.Inf)
	sum := lp.NewExpr().Add(float64(k), s)
	for i, e := range exprs {
		t := m.NewVar(fmt.Sprintf("%s.t%d", name, i), 0, lp.Inf)
		// t ≥ sign·(e − s)
		m.AddGE(lp.NewExpr().Add(1, t).Add(sign, s).AddExpr(-sign, e), 0)
		sum.Add(sign, t)
	}
	vars, cons = len(exprs)+1, len(exprs)
	obsCmpEncodings.Inc()
	obsCmpVars.Add(int64(vars))
	obsCmpCons.Add(int64(cons))
	row(sum)
	return vars, cons + 1
}

// Subsets enumerates the bound explicitly: row receives the sum of every
// size-k subset of exprs, in lexicographic index order, and no auxiliary is
// added. The subset sums bound both directions exactly, so largest is
// ignored; the price is C(N,k) rows.
func Subsets(m *lp.Model, exprs []*lp.Expr, k int, largest bool, name string, row func(*lp.Expr)) (vars, cons int) {
	ForEachCombo(len(exprs), clamp(k, len(exprs)), func(sel []int) {
		sum := lp.NewExpr()
		for _, j := range sel {
			sum.AddExpr(1, exprs[j])
		}
		row(sum)
		cons++
	})
	return 0, cons
}

// ForEachCombo calls fn with every size-k index combination from [0,n), in
// lexicographic order; k = 0 yields the empty combination once. fn must not
// keep the slice.
func ForEachCombo(n, k int, fn func([]int)) {
	if k > n {
		k = n
	}
	sel := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			fn(sel)
			return
		}
		for i := start; i <= n-(k-pos); i++ {
			sel[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
}

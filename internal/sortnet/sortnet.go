// Package sortnet encodes "bounded M-sum" constraints into linear programs
// using partial sorting networks, the core constraint-reduction technique of
// the FFC paper (§4.4).
//
// The bounded M-sum problem asks that the sum of any M out of N quantities
// stay below a bound B. Naively this is C(N,M) constraints; all of them hold
// iff the sum of the *largest* M quantities is ≤ B. This package emits, for
// a slice of LP expressions, auxiliary variables y₁…y_M and O(N·M) linear
// constraints such that in every feasible assignment Σyⱼ upper-bounds the
// sum of the M largest expressions (Algorithms 1 and 2 of the paper).
// A symmetric construction lower-bounds the sum of the M smallest.
//
// The construction is a partial bubble-sort network: pass j extracts (an
// over-approximation of) the j-th largest value. Each compare-swap on wires
// (x, y) introduces hi, lo with
//
//	hi ≥ x,  hi ≥ y,  hi + lo = x + y,
//
// which is the paper's 2·hi = x + y + |x−y| encoding after eliminating the
// absolute-value auxiliary (|x−y| = 2·hi − x − y ≥ ±(x−y)). Soundness: hi
// upper-bounds max(x,y) while the pair conserves the sum, so any slack an
// adversarial solution adds to hi is exactly removed from lo and cannot
// reduce the final Σyⱼ.
//
// The package also provides the compact "top-k" dual encoding
// (Σ largest-M nᵢ ≤ B  ⟺  ∃s, tᵢ ≥ 0: M·s + Σtᵢ ≤ B, tᵢ ≥ nᵢ − s), which
// is what production solves use (core.Compact), and a full Batcher
// odd-even merge sorting network used by tests as an oracle for network
// construction.
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

// Result carries the outputs of a partial sorting-network encoding.
type Result struct {
	// Ranked[j] is an expression for the (j+1)-th largest (or smallest)
	// input: a single auxiliary LP variable per rank.
	Ranked []*lp.Expr
	// Sum is Σ Ranked, the bound on the M-sum.
	Sum *lp.Expr
	// Vars is the number of auxiliary variables added to the model.
	Vars int
	// Constraints is the number of constraints added to the model.
	Constraints int
	// Comparators is the number of compare-swap operators emitted (zero
	// for the compact encodings, which have none).
	Comparators int
}

// LargestSum adds a partial bubble network over exprs to m and returns an
// expression that, in any feasible assignment, is ≥ the sum of the M largest
// input expressions. Using it on the left side of a ≤ constraint yields the
// exact bounded M-sum semantics (the LP can always set the auxiliaries to
// the true sorted values). M is clamped to [0, len(exprs)].
//
// Inputs are assumed bounded below in the model (the usual case: FFC inputs
// are non-negative traffic quantities); the auxiliaries are created as free
// variables so negative inputs are handled too.
//
// The comparator network for (len(exprs), M) is derived and then stamped
// into m (see template.go).
func LargestSum(m *lp.Model, exprs []*lp.Expr, M int, name string) Result {
	return partialSort(m, exprs, M, name, true)
}

// SmallestSum is the symmetric construction: the returned expression is
// ≤ the sum of the M smallest inputs in any feasible assignment, for use on
// the left side of a ≥ constraint (Eqn 15 of the paper).
func SmallestSum(m *lp.Model, exprs []*lp.Expr, M int, name string) Result {
	return partialSort(m, exprs, M, name, false)
}

func partialSort(m *lp.Model, exprs []*lp.Expr, M int, name string, largest bool) Result {
	if M < 0 {
		M = 0
	}
	if M > len(exprs) {
		M = len(exprs)
	}
	if M == 0 {
		return Result{Sum: lp.NewExpr()}
	}
	res := deriveTemplate(len(exprs), M).stamp(m, exprs, name, largest)
	obsNetEncodings.Inc()
	obsNetComparators.Add(int64(res.Comparators))
	obsNetVars.Add(int64(res.Vars))
	obsNetCons.Add(int64(res.Constraints))
	return res
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

// TopKCompact adds the compact dual encoding of "sum of the M largest of
// exprs" and returns an expression that upper-bounds it:
//
//	M·s + Σ tᵢ   with  tᵢ ≥ exprᵢ − s,  tᵢ ≥ 0,  s free.
//
// This is the classic exact LP representation of the sum-of-k-largest
// (CVaR-style) constraint; it uses N+1 variables and N constraints versus
// the sorting network's O(N·M). It exists as an ablation/validation
// alternative to the paper's sorting-network encoding.
func TopKCompact(m *lp.Model, exprs []*lp.Expr, M int, name string) Result {
	if M < 0 {
		M = 0
	}
	if M > len(exprs) {
		M = len(exprs)
	}
	res := Result{Sum: lp.NewExpr()}
	if M == 0 {
		return res
	}
	s := m.NewVar(name+".s", negInf(), lp.Inf)
	res.Vars++
	sum := lp.NewExpr().Add(float64(M), s)
	for i, e := range exprs {
		t := m.NewVar(fmt.Sprintf("%s.t%d", name, i), 0, lp.Inf)
		res.Vars++
		// t ≥ e − s
		m.AddGE(lp.NewExpr().Add(1, t).Add(1, s).AddExpr(-1, e), 0)
		res.Constraints++
		sum.Add(1, t)
	}
	res.Sum = sum
	publishCompact(&res)
	return res
}

func publishCompact(res *Result) {
	obsCmpEncodings.Inc()
	obsCmpVars.Add(int64(res.Vars))
	obsCmpCons.Add(int64(res.Constraints))
}

// BottomKCompact is the symmetric compact encoding lower-bounding the sum of
// the M smallest inputs: M·s − Σ tᵢ with tᵢ ≥ s − exprᵢ, tᵢ ≥ 0.
func BottomKCompact(m *lp.Model, exprs []*lp.Expr, M int, name string) Result {
	if M < 0 {
		M = 0
	}
	if M > len(exprs) {
		M = len(exprs)
	}
	res := Result{Sum: lp.NewExpr()}
	if M == 0 {
		return res
	}
	s := m.NewVar(name+".s", negInf(), lp.Inf)
	res.Vars++
	sum := lp.NewExpr().Add(float64(M), s)
	for i, e := range exprs {
		t := m.NewVar(fmt.Sprintf("%s.t%d", name, i), 0, lp.Inf)
		res.Vars++
		// t ≥ s − e
		m.AddGE(lp.NewExpr().Add(1, t).Add(-1, s).AddExpr(1, e), 0)
		res.Constraints++
		sum.Add(-1, t)
	}
	res.Sum = sum
	publishCompact(&res)
	return res
}

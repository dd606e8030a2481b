// Partial bubble network templates.
//
// The comparator sequence of a partial sort depends only on (N, M) — never
// on the input expressions — so Bubble first derives it symbolically over
// wire ids and then stamps the recorded operations onto the model. Stamping
// replays the derivation verbatim, so the emitted variables, names and
// constraint rows are those of a direct construction.
package sortnet

import (
	"fmt"

	"ffc/internal/lp"
)

// netOp is one recorded compare-swap: wire ids x, y are inputs (0..n-1) or
// auxiliary wires (n+j = j-th auxiliary created during the stamp, in
// creation order: each op appends its hi then lo wire).
type netOp struct {
	x, y   int32
	suffix string // variable-name suffix ".p<pass>.c<i>" (pre-rendered)
}

// netTemplate is a fully derived partial bubble network, ready to stamp.
type netTemplate struct {
	n   int
	ops []netOp
	// tailWire/tailSuffix describe the single-wire final pass (the wire is
	// its own extremum and is bound to a fresh variable); tailWire is -1
	// when every pass ran a full comparator chain.
	tailWire    int32
	tailSuffix  string
	ranked      []int32 // wire id per rank, in rank order
	comparators int
}

// deriveTemplate runs the partial bubble sort (Algorithms 1 and 2 of the
// paper) symbolically over wire ids, recording the compare-swap sequence.
func deriveTemplate(n, m int) *netTemplate {
	t := &netTemplate{n: n, tailWire: -1}
	wires := make([]int32, n)
	for i := range wires {
		wires[i] = int32(i)
	}
	aux := int32(n)
	for pass := 0; pass < m; pass++ {
		if len(wires) == 1 {
			// Single wire left: it is its own extremum; bind it to a
			// fresh variable to keep the Ranked contract (one var/rank).
			t.tailWire = wires[0]
			t.tailSuffix = fmt.Sprintf(".y%d", pass)
			t.ranked = append(t.ranked, aux)
			break
		}
		// One bubble pass: a chain of compare-swaps carries the running
		// extremum through the array; the losers feed the next pass.
		cur := wires[0]
		losers := make([]int32, 0, len(wires)-1)
		for i := 1; i < len(wires); i++ {
			t.ops = append(t.ops, netOp{x: cur, y: wires[i], suffix: fmt.Sprintf(".p%d.c%d", pass, i)})
			cur = aux
			losers = append(losers, aux+1)
			aux += 2
		}
		t.comparators += len(wires) - 1
		t.ranked = append(t.ranked, cur)
		wires = losers
	}
	return t
}

// stamp emits the recorded network into m over the given input expressions
// and returns an expression per rank with the variables and constraints it
// added. Auxiliary wires are materialized in recording order, so variable
// creation, names, and constraint rows match a direct construction exactly.
func (t *netTemplate) stamp(m *lp.Model, exprs []*lp.Expr, name string, largest bool) (ranked []*lp.Expr, vars, cons int) {
	aux := make([]*lp.Expr, 0, 2*len(t.ops)+1)
	wire := func(w int32) *lp.Expr {
		if w < int32(t.n) {
			return exprs[w]
		}
		return aux[w-int32(t.n)]
	}
	for _, op := range t.ops {
		hi, lo := compareSwap(m, wire(op.x), wire(op.y), name+op.suffix, largest)
		aux = append(aux, hi, lo)
	}
	vars, cons = 2*len(t.ops), 3*len(t.ops)
	if t.tailWire >= 0 {
		y := m.NewVar(name+t.tailSuffix, negInf(), lp.Inf)
		if largest {
			m.AddGE(lp.NewExpr().Add(1, y).AddExpr(-1, wire(t.tailWire)), 0)
		} else {
			m.AddLE(lp.NewExpr().Add(1, y).AddExpr(-1, wire(t.tailWire)), 0)
		}
		vars++
		cons++
		aux = append(aux, lp.NewExpr().Add(1, y))
	}
	for _, w := range t.ranked {
		ranked = append(ranked, wire(w))
	}
	return ranked, vars, cons
}

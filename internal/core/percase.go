package core

import (
	"fmt"

	"ffc/internal/lp"
	"ffc/internal/topology"
)

// SolvePerCaseOptimal implements the comparison point of §9's related work
// (Suchara et al.): instead of one traffic spread plus proportional
// rescaling, the ingress switches hold a *precomputed optimal split per
// anticipated failure case*. Rates {bf} are shared across cases (the rate
// limiter does not react to failures); per-tunnel splits may differ
// arbitrarily per case. The result upper-bounds every proactive
// rescaling scheme on the same case set — the gap to FFC's single
// configuration is the price of commodity-switch proportional rescaling,
// which the paper argues is small for disjoint tunnel layouts.
//
// cases lists the anticipated fault sets; the no-fault case is always
// included. Each case's physical link failures take both directions of a
// duplex link, as everywhere in this repository.
func (s *Solver) SolvePerCaseOptimal(in Input, cases []FailureCase) (*State, *Stats, error) {
	model := lp.NewModel()

	// Shared rates and base-case allocations, by flow index (−1 / nil for
	// flows outside this computation).
	bVar := make([]lp.Var, len(s.flows))
	base := make([][]lp.Var, len(s.flows))
	obj := lp.NewExpr()
	for i, f := range s.flows {
		bVar[i] = -1
		d := in.Demands[f]
		if d <= 0 {
			continue
		}
		bVar[i] = model.NewVar(fmt.Sprintf("b[%v]", f), 0, d)
		obj.Add(1, bVar[i])
		ts := s.Tun.Tunnels(f)
		vars := make([]lp.Var, len(ts))
		for t := range ts {
			vars[t] = model.NewVar(fmt.Sprintf("a[%v,%d]", f, t), 0, lp.Inf)
		}
		base[i] = vars
		cover := lp.NewExpr()
		for _, v := range vars {
			cover.Add(1, v)
		}
		model.AddGE(cover.Add(-1, bVar[i]), 0)
	}
	s.addCaseCapacity(model, in, base, nil, nil)

	// Per failure case: affected flows get fresh split variables; the
	// rest keep the base split. A flow whose tunnels all die pins bf = 0.
	for ci, fc := range cases {
		down := fc.downLinks(s.Net)
		downSw := map[topology.SwitchID]bool{}
		for _, v := range fc.Switches {
			downSw[v] = true
		}
		caseAlloc := make([][]lp.Var, len(s.flows))
		for i, f := range s.flows {
			if bVar[i] < 0 {
				continue
			}
			ts := s.Tun.Tunnels(f)
			affected := false
			anyAlive := false
			for _, t := range ts {
				if t.Alive(s.Net, down, downSw) {
					anyAlive = true
				} else {
					affected = true
				}
			}
			if downSw[f.Src] || downSw[f.Dst] {
				anyAlive = false
			}
			if !anyAlive {
				model.SetBounds(bVar[i], 0, 0)
				continue
			}
			if !affected {
				continue // keeps the base split in this case
			}
			vars := make([]lp.Var, len(ts))
			cover := lp.NewExpr()
			for k, t := range ts {
				if !t.Alive(s.Net, down, downSw) {
					vars[k] = -1
					continue
				}
				v := model.NewVar(fmt.Sprintf("a%d[%v,%d]", ci, f, k), 0, lp.Inf)
				vars[k] = v
				cover.Add(1, v)
			}
			caseAlloc[i] = vars
			model.AddGE(cover.Add(-1, bVar[i]), 0)
		}
		s.addCaseCapacity(model, in, base, caseAlloc, down)
	}

	model.Maximize(obj)
	sol, err := model.Solve()
	stats := &Stats{
		Status: sol.Status, Objective: sol.Objective,
		Vars: model.NumVars(), Constraints: model.NumRows(), Iters: sol.Iters,
	}
	if err != nil {
		return nil, stats, fmt.Errorf("core: per-case solve: %w", err)
	}
	st := NewState()
	for i, f := range s.flows {
		if bVar[i] < 0 {
			continue
		}
		st.Rate[f] = clampTiny(sol.Value(bVar[i]))
		alloc := make([]float64, len(base[i]))
		for t, v := range base[i] {
			alloc[t] = clampTiny(sol.Value(v))
		}
		st.Alloc[f] = alloc
	}
	return st, stats, nil
}

// addCaseCapacity emits link-capacity rows for one case: flows with
// per-case variables in caseAlloc (by flow index; nil in the base case)
// use them, with dead tunnels omitted, everyone else the base variables.
// Links in down are skipped.
func (s *Solver) addCaseCapacity(model *lp.Model, in Input,
	base, caseAlloc [][]lp.Var, down map[topology.LinkID]bool) {

	for _, l := range s.Net.Links {
		if down[l.ID] {
			continue
		}
		use := lp.NewExpr()
		for _, ft := range s.incidence[l.ID] {
			vars := base[ft.flow]
			if caseAlloc != nil && caseAlloc[ft.flow] != nil {
				vars = caseAlloc[ft.flow]
			}
			if vars != nil && vars[ft.idx] >= 0 {
				use.Add(1, vars[ft.idx])
			}
		}
		if len(use.Terms) == 0 {
			continue
		}
		model.AddLE(use, s.capacity(&in, l.ID))
	}
}

// FailureCase is one anticipated fault set.
type FailureCase struct {
	// Links lists physical links (either direction identifies the pair).
	Links []topology.LinkID
	// Switches lists failed switches.
	Switches []topology.SwitchID
}

func (fc FailureCase) downLinks(net *topology.Network) map[topology.LinkID]bool {
	down := map[topology.LinkID]bool{}
	for _, l := range fc.Links {
		down[l] = true
		if tw := net.Links[l].Twin; tw != topology.None {
			down[tw] = true
		}
	}
	return down
}

// SingleLinkCases enumerates one FailureCase per physical link.
func SingleLinkCases(net *topology.Network) []FailureCase {
	var out []FailureCase
	for _, l := range net.PhysicalLinks() {
		out = append(out, FailureCase{Links: []topology.LinkID{l}})
	}
	return out
}

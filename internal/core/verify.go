package core

import (
	"fmt"
	"math"

	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Violation describes one fault case that overloads a link.
type Violation struct {
	// Case lists the failed physical links and switches by their
	// positions in the enumeration.
	Case string
	Link topology.LinkID
	// Over is load − capacity (positive).
	Over float64
}

// overThreshold is the single overload-tolerance comparison shared by every
// planner in this package: load counts as exceeding cap only beyond
// 1e-6·max(1, cap), so solver round-off on large-capacity links doesn't
// trip false violations (an absolute cutoff would).
func overThreshold(load, cap float64) bool {
	return load-cap > 1e-6*math.Max(1, cap)
}

// VerifyDataPlane enumerates every fault case with up to ke physical link
// failures and kv switch failures, applies ingress rescaling, and returns
// the worst overload found (nil if the state is congestion-free in all
// cases — the guarantee of Lemma 1). Serial and exponential in (ke, kv).
// Plans are certified by internal/check; this map-based enumerator is kept
// only as the solver-side cross-check that check's tests and the
// benchmark's verify diagnostic compare against.
func VerifyDataPlane(net *topology.Network, tun *tunnel.Set, st *State, ke, kv int, capacity map[topology.LinkID]float64) *Violation {
	var links []topology.LinkID // one direction per physical link
	for _, l := range net.Links {
		if l.Twin == topology.None || l.ID < l.Twin {
			links = append(links, l.ID)
		}
	}
	down := map[topology.LinkID]bool{}
	downSw := map[topology.SwitchID]bool{}
	loads := map[topology.LinkID]float64{}
	var worst *Violation
	forEachComboUpTo(len(links), ke, func(li []int) {
		clear(down)
		for _, i := range li {
			down[links[i]] = true
			if tw := net.Links[links[i]].Twin; tw != topology.None {
				down[tw] = true
			}
		}
		forEachComboUpTo(len(net.Switches), kv, func(si []int) {
			clear(downSw)
			for _, i := range si {
				downSw[net.Switches[i].ID] = true
			}
			// Every surviving flow rescales onto its surviving tunnels;
			// flows whose ingress or egress failed send nothing.
			clear(loads)
			for _, f := range tun.All() {
				rate := st.Rate[f]
				if rate == 0 || downSw[f.Src] || downSw[f.Dst] {
					continue
				}
				tl := tun.Rescale(f, st.Weights(f), rate, down, downSw)
				for _, t := range tun.Tunnels(f) {
					if tl[t.Index] == 0 {
						continue
					}
					for _, l := range t.Links {
						loads[l] += tl[t.Index]
					}
				}
			}
			for l, load := range loads {
				c := net.Links[l].Capacity
				if o, ok := capacity[l]; ok {
					c = o
				}
				if !down[l] && overThreshold(load, c) && (worst == nil || load-c > worst.Over) {
					worst = &Violation{Case: fmt.Sprintf("links=%v switches=%v", li, si), Link: l, Over: load - c}
				}
			}
		})
	})
	return worst
}

// forEachComboUpTo calls fn with every index combination of size 0..k.
func forEachComboUpTo(n, k int, fn func([]int)) {
	if k > n {
		k = n
	}
	for size := 0; size <= k; size++ {
		forEachCombo(n, size, fn)
	}
}

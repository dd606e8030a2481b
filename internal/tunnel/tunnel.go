// Package tunnel implements tunnel-based forwarding state for TE (§2 of the
// paper): per-flow tunnel sets, (p,q) link-switch disjoint tunnel layout
// (§4.3), residual-tunnel computation under data-plane faults, and the
// proportional rescaling ingress switches perform when tunnels fail (§2.1).
package tunnel

import (
	"cmp"
	"fmt"
	"slices"

	"ffc/internal/topology"
)

// Flow identifies aggregated ingress→egress traffic.
type Flow struct {
	Src, Dst topology.SwitchID
}

func (f Flow) String() string { return fmt.Sprintf("%d→%d", f.Src, f.Dst) }

// SortedFlows returns m's keys in the canonical (Src, Dst) order. Every
// pass over a flow map whose result must not depend on map iteration order
// — floating-point sums, LP row order, tunnel layout — iterates through it.
func SortedFlows[V any](m map[Flow]V) []Flow {
	flows := make([]Flow, 0, len(m))
	for f := range m {
		flows = append(flows, f)
	}
	slices.SortFunc(flows, func(a, b Flow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return flows
}

// Tunnel is one path assigned to a flow.
type Tunnel struct {
	// Index of this tunnel within its flow's tunnel list.
	Index int
	Flow  Flow
	// Links is the ordered list of directed links from Flow.Src to
	// Flow.Dst.
	Links []topology.LinkID
	// Switches is the ordered switch sequence (len(Links)+1, starting at
	// Flow.Src).
	Switches []topology.SwitchID
}

// Alive reports whether the tunnel survives the given fault sets: it dies if
// any of its directed links (or their twins, since a physical failure takes
// both directions) or any of its switches is down.
func (t *Tunnel) Alive(net *topology.Network, downLinks map[topology.LinkID]bool, downSwitches map[topology.SwitchID]bool) bool {
	for _, l := range t.Links {
		if downLinks[l] {
			return false
		}
		if tw := net.Links[l].Twin; tw != topology.None && downLinks[tw] {
			return false
		}
	}
	for _, s := range t.Switches {
		if downSwitches[s] {
			return false
		}
	}
	return true
}

// newTunnel builds a Tunnel from a link path, deriving the switch sequence.
func newTunnel(net *topology.Network, f Flow, links []topology.LinkID) *Tunnel {
	t := &Tunnel{Flow: f, Links: links}
	if len(links) == 0 {
		return t
	}
	t.Switches = append(t.Switches, net.Links[links[0]].Src)
	for _, l := range links {
		t.Switches = append(t.Switches, net.Links[l].Dst)
	}
	return t
}

// Set holds the tunnels of every flow over one network.
type Set struct {
	Net    *topology.Network
	Flows  []Flow
	tunMap map[Flow][]*Tunnel
}

// NewSet returns an empty tunnel set over net.
func NewSet(net *topology.Network) *Set {
	return &Set{Net: net, tunMap: make(map[Flow][]*Tunnel)}
}

// Add registers tunnels for a flow (appending), keeping indices consistent.
func (s *Set) Add(f Flow, ts ...*Tunnel) {
	cur := s.tunMap[f]
	if cur == nil {
		s.Flows = append(s.Flows, f)
	}
	for _, t := range ts {
		t.Index = len(cur)
		t.Flow = f
		cur = append(cur, t)
	}
	s.tunMap[f] = cur
}

// Tunnels returns the tunnels of f (nil if unknown).
func (s *Set) Tunnels(f Flow) []*Tunnel { return s.tunMap[f] }

// All iterates flows in insertion order, returning flow/tunnel pairs.
func (s *Set) All() []Flow { return s.Flows }

// PQ returns the layout's actual (p, q) for a flow: the maximum number of
// its tunnels sharing one physical link (either direction pooled) and one
// intermediate switch. Endpoints are excluded from q — every tunnel
// necessarily transits them, and FFC's residual-tunnel bound covers
// non-terminal switch failures (an ingress/egress failure kills the flow
// entirely, which no traffic spreading can mitigate). alive, indexed by
// tunnel Index, restricts the count to the tunnels it marks; nil means
// every tunnel.
func (s *Set) PQ(f Flow, alive []bool) (p, q int) {
	linkUse := map[topology.LinkID]int{}
	swUse := map[topology.SwitchID]int{}
	for _, t := range s.tunMap[f] {
		if alive != nil && !alive[t.Index] {
			continue
		}
		for _, l := range t.Links {
			id := s.Net.Physical(l)
			linkUse[id]++
			p = max(p, linkUse[id])
		}
		for _, v := range t.Switches[1 : len(t.Switches)-1] {
			swUse[v]++
			q = max(q, swUse[v])
		}
	}
	return p, q
}

// Rescale computes per-tunnel loads after faults: the flow's rate is split
// over residual tunnels in proportion to the configured weights (§2.1).
// weights is indexed by tunnel Index; rate is the flow's sending rate.
// Dead tunnels get 0. If no tunnel survives, all loads are 0 (blackhole;
// the caller accounts the loss).
func (s *Set) Rescale(f Flow, weights []float64, rate float64, downLinks map[topology.LinkID]bool, downSwitches map[topology.SwitchID]bool) []float64 {
	ts := s.tunMap[f]
	loads := make([]float64, len(ts))
	var total float64
	for _, t := range ts {
		if t.Alive(s.Net, downLinks, downSwitches) {
			total += weights[t.Index]
		}
	}
	if total <= 0 {
		return loads
	}
	for _, t := range ts {
		if t.Alive(s.Net, downLinks, downSwitches) {
			loads[t.Index] = rate * weights[t.Index] / total
		}
	}
	return loads
}

// Weights converts per-tunnel allocations {a_{f,t}} into splitting weights
// w_{f,t} = a_{f,t} / Σ a (the configuration installed at ingress switches).
// A zero allocation vector yields uniform weights.
func Weights(alloc []float64) []float64 {
	w := make([]float64, len(alloc))
	var sum float64
	for _, a := range alloc {
		sum += a
	}
	if sum <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return w
	}
	for i, a := range alloc {
		w[i] = a / sum
	}
	return w
}

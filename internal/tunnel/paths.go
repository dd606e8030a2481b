package tunnel

import (
	"container/heap"
	"math"

	"ffc/internal/topology"
)

// WeightFunc assigns a routing cost to a directed link; return +Inf to
// forbid the link.
type WeightFunc func(topology.LinkID) float64

// UnitWeights routes by hop count.
func UnitWeights(topology.LinkID) float64 { return 1 }

// InverseCapacity prefers fat links.
func InverseCapacity(net *topology.Network) WeightFunc {
	return func(l topology.LinkID) float64 { return 1 / net.Links[l].Capacity }
}

type pqItem struct {
	sw   topology.SwitchID
	dist float64
}

type pathHeap []pqItem

func (h pathHeap) Len() int            { return len(h) }
func (h pathHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h pathHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x interface{}) { *h = append(*h, x.(pqItem)) }
func (h *pathHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// ShortestPath runs Dijkstra from src to dst under w, never transiting a
// switch in banSwitch (src and dst are exempt) nor using a link in banLink.
// Returns the link path, or nil if unreachable.
func ShortestPath(net *topology.Network, src, dst topology.SwitchID, w WeightFunc,
	banLink map[topology.LinkID]bool, banSwitch map[topology.SwitchID]bool) []topology.LinkID {

	n := net.NumSwitches()
	dist := make([]float64, n)
	prev := make([]topology.LinkID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = topology.None
	}
	dist[src] = 0
	h := &pathHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		v := it.sw
		if done[v] {
			continue
		}
		done[v] = true
		if v == dst {
			break
		}
		if v != src && v != dst && banSwitch[v] {
			continue // may be reached but not transited
		}
		for _, lid := range net.OutLinks(v) {
			if banLink[lid] {
				continue
			}
			c := w(lid)
			if math.IsInf(c, 1) {
				continue
			}
			d := net.Links[lid].Dst
			if nd := it.dist + c; nd < dist[d]-1e-12 {
				dist[d] = nd
				prev[d] = lid
				heap.Push(h, pqItem{d, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	var rev []topology.LinkID
	for v := dst; v != src; {
		l := prev[v]
		rev = append(rev, l)
		v = net.Links[l].Src
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// KShortest returns up to K loopless shortest paths (Yen's algorithm) under
// w, shortest first.
func KShortest(net *topology.Network, src, dst topology.SwitchID, K int, w WeightFunc) [][]topology.LinkID {
	first := ShortestPath(net, src, dst, w, nil, nil)
	if first == nil || K == 0 {
		return nil
	}
	paths := [][]topology.LinkID{first}
	var candidates []yenCand
	cost := func(p []topology.LinkID) float64 {
		var c float64
		for _, l := range p {
			c += w(l)
		}
		return c
	}
	for len(paths) < K {
		last := paths[len(paths)-1]
		// Spur from every prefix of the last accepted path.
		for i := 0; i < len(last); i++ {
			spurNode := net.Links[last[i]].Src
			rootPath := last[:i]
			banLink := map[topology.LinkID]bool{}
			for _, p := range paths {
				if sharesPrefix(p, rootPath) && len(p) > i {
					banLink[p[i]] = true
				}
			}
			banSwitch := map[topology.SwitchID]bool{}
			for _, l := range rootPath {
				banSwitch[net.Links[l].Src] = true
			}
			delete(banSwitch, spurNode)
			spur := ShortestPath(net, spurNode, dst, w, banLink, banSwitch)
			if spur == nil {
				continue
			}
			full := append(append([]topology.LinkID(nil), rootPath...), spur...)
			if containsPath(paths, full) || containsCand(candidates, full) {
				continue
			}
			candidates = append(candidates, yenCand{full, cost(full)})
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].cost < candidates[best].cost {
				best = i
			}
		}
		paths = append(paths, candidates[best].path)
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

func sharesPrefix(p, prefix []topology.LinkID) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func samePath(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsPath(ps [][]topology.LinkID, p []topology.LinkID) bool {
	for _, q := range ps {
		if samePath(q, p) {
			return true
		}
	}
	return false
}

type yenCand struct {
	path []topology.LinkID
	cost float64
}

func containsCand(cs []yenCand, p []topology.LinkID) bool {
	for _, c := range cs {
		if samePath(c.path, p) {
			return true
		}
	}
	return false
}

// LayoutConfig parameterizes tunnel layout.
type LayoutConfig struct {
	// TunnelsPerFlow is the target |Tf|. Default 6 (the paper's setting).
	TunnelsPerFlow int
	// P bounds how many of a flow's tunnels may share one physical link.
	// Default 1.
	P int
	// Q bounds how many may share one intermediate switch. Default 3.
	Q int
	// Weights is the base routing metric; default hop count.
	Weights WeightFunc
}

func (c *LayoutConfig) fill() {
	if c.TunnelsPerFlow == 0 {
		c.TunnelsPerFlow = 6
	}
	if c.P == 0 {
		c.P = 1
	}
	if c.Q == 0 {
		c.Q = 3
	}
	if c.Weights == nil {
		c.Weights = UnitWeights
	}
}

// Layout builds a tunnel set for the given flows using the (p,q)
// link-switch disjoint strategy of §4.3: tunnels are added shortest-first,
// forbidding physical links already used p times and intermediate switches
// already used q times by the same flow. A flow keeps fewer tunnels when
// path diversity runs out.
func Layout(net *topology.Network, flows []Flow, cfg LayoutConfig) *Set {
	cfg.fill()
	set := NewSet(net)
	for _, f := range flows {
		set.Add(f, layoutFlow(net, f, cfg)...)
	}
	return set
}

func layoutFlow(net *topology.Network, f Flow, cfg LayoutConfig) []*Tunnel {
	linkUse := map[topology.LinkID]int{}
	swUse := map[topology.SwitchID]int{}
	var tunnels []*Tunnel
	addTunnel := func(path []topology.LinkID) {
		t := newTunnel(net, f, path)
		tunnels = append(tunnels, t)
		for _, l := range path {
			linkUse[net.Physical(l)]++
		}
		for _, v := range t.Switches[1 : len(t.Switches)-1] {
			swUse[v]++
		}
	}
	if cfg.P == 1 && cfg.TunnelsPerFlow >= 2 {
		// Seed with Suurballe's optimal disjoint pair: greedy shortest-
		// first can pick a path that severs the only other disjoint route.
		for _, path := range DisjointPair(net, f.Src, f.Dst, cfg.Weights) {
			addTunnel(simplifyPath(net, path))
		}
	}
	for len(tunnels) < cfg.TunnelsPerFlow {
		banLink := map[topology.LinkID]bool{}
		for l, u := range linkUse {
			if u >= cfg.P {
				banLink[l] = true
				if tw := net.Links[l].Twin; tw != topology.None {
					banLink[tw] = true
				}
			}
		}
		banSwitch := map[topology.SwitchID]bool{}
		for v, u := range swUse {
			if u >= cfg.Q {
				banSwitch[v] = true
			}
		}
		// Soft penalty steers early tunnels apart even before the hard
		// p/q limits bind.
		w := func(l topology.LinkID) float64 {
			base := cfg.Weights(l)
			return base * (1 + 2*float64(linkUse[net.Physical(l)]))
		}
		path := ShortestPath(net, f.Src, f.Dst, w, banLink, banSwitch)
		if path == nil {
			break
		}
		addTunnel(path)
	}
	for i, t := range tunnels {
		t.Index = i
	}
	return tunnels
}

// simplifyPath removes vertex cycles (Suurballe's merge can, rarely,
// produce non-simple walks).
func simplifyPath(net *topology.Network, path []topology.LinkID) []topology.LinkID {
	if len(path) == 0 {
		return path
	}
	pos := map[topology.SwitchID]int{net.Links[path[0]].Src: 0}
	out := make([]topology.LinkID, 0, len(path))
	for _, l := range path {
		out = append(out, l)
		dst := net.Links[l].Dst
		if at, seen := pos[dst]; seen {
			// Cut the cycle: drop links after position `at` and forget
			// the switches they visited.
			for _, dropped := range out[at:] {
				delete(pos, net.Links[dropped].Dst)
			}
			out = out[:at]
		}
		pos[dst] = len(out)
	}
	return out
}

// LayoutKShortest builds tunnels as plain loopless K-shortest paths with no
// disjointness constraints — the ablation baseline contrasted with Layout.
func LayoutKShortest(net *topology.Network, flows []Flow, K int, w WeightFunc) *Set {
	if w == nil {
		w = UnitWeights
	}
	set := NewSet(net)
	for _, f := range flows {
		var ts []*Tunnel
		for _, p := range KShortest(net, f.Src, f.Dst, K, w) {
			ts = append(ts, newTunnel(net, f, p))
		}
		set.Add(f, ts...)
	}
	return set
}

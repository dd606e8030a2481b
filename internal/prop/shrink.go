package prop

import (
	"math"

	"ffc/internal/topology"
	"ffc/internal/wire"
)

// ShrinkStats reports the shrinker's work.
type ShrinkStats struct {
	// Attempts counts candidate scenarios replayed.
	Attempts int `json:"attempts"`
	// Accepted counts candidates that kept the failure and became the new
	// minimum.
	Accepted int `json:"accepted"`
}

// DefaultShrinkRuns caps how many candidate replays Shrink performs.
const DefaultShrinkRuns = 400

// Shrink greedily minimizes a failing scenario while preserving the given
// failure's invariant: it tries removing flows, switches, and links,
// clearing fault sets, lowering protection, simplifying the solve path and
// encoding, and rounding numbers — accepting a candidate only if the same
// invariant still fails on it. The process is fully deterministic (the
// candidate order is fixed and Run has no randomness), bounded by maxRuns
// replays (≤ 0 uses DefaultShrinkRuns), and always returns a scenario on
// which the invariant fails — at worst the input itself.
//
// The returned scenario carries Invariants = [failure.Invariant], so
// replaying it checks exactly the shrunk property.
func Shrink(sc *Scenario, failure Failure, maxRuns int) (*Scenario, ShrinkStats) {
	if maxRuns <= 0 {
		maxRuns = DefaultShrinkRuns
	}
	best := sc.Clone()
	best.Invariants = []string{failure.Invariant}
	var stats ShrinkStats

	fails := func(c *Scenario) bool {
		if c == nil || stats.Attempts >= maxRuns {
			return false
		}
		stats.Attempts++
		res, err := Run(c)
		if err != nil {
			return false // invalid candidate; keep looking
		}
		for _, f := range res.Failures {
			if f.Invariant == failure.Invariant {
				return true
			}
		}
		return false
	}

	passes := []func(*Scenario) []*Scenario{
		simplifyPass,
		clearFaultsPass,
		reduceProtPass,
		dropSwitchPass,
		dropDemandPass,
		dropLinkPass,
		dropPrevPass,
		roundPass,
	}
	for improved := true; improved && stats.Attempts < maxRuns; {
		improved = false
		for _, pass := range passes {
			// Restart a pass after each acceptance: the shrunk scenario
			// exposes new candidates of the same kind.
			for retry := true; retry; {
				retry = false
				for _, cand := range pass(best) {
					if fails(cand) {
						best = cand
						stats.Accepted++
						improved, retry = true, true
						break
					}
					if stats.Attempts >= maxRuns {
						return best, stats
					}
				}
			}
		}
	}
	return best, stats
}

// simplifyPass collapses configuration dimensions to their simplest values.
func simplifyPass(sc *Scenario) []*Scenario {
	var out []*Scenario
	mod := func(f func(*Scenario) bool) {
		c := sc.Clone()
		if f(c) {
			out = append(out, c)
		}
	}
	mod(func(c *Scenario) bool {
		if c.Path == PathScratch {
			return false
		}
		c.Path = PathScratch
		return true
	})
	mod(func(c *Scenario) bool {
		if c.Encoding == "" || c.Encoding == "sortnet" {
			return false
		}
		c.Encoding = "sortnet"
		return true
	})
	mod(func(c *Scenario) bool {
		if c.RateLimiter == "" || c.RateLimiter == "synced" {
			return false
		}
		c.RateLimiter = "synced"
		return true
	})
	mod(func(c *Scenario) bool {
		if len(c.Relabel) == 0 || has(c.Invariants, InvRelabel) {
			return false
		}
		c.Relabel = nil
		return true
	})
	mod(func(c *Scenario) bool {
		if c.Scale == 0 || c.Scale == 2 || has(c.Invariants, InvScale) {
			return false
		}
		c.Scale = 2
		return true
	})
	mod(func(c *Scenario) bool {
		if c.TunnelsPerFlow == 0 || c.TunnelsPerFlow <= 2 {
			return false
		}
		c.TunnelsPerFlow = 2
		return true
	})
	return out
}

func has(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// clearFaultsPass empties each fault list wholesale, then element-wise.
func clearFaultsPass(sc *Scenario) []*Scenario {
	var out []*Scenario
	clear := func(f func(*Scenario)) {
		c := sc.Clone()
		f(c)
		out = append(out, c)
	}
	if len(sc.DownLinks) > 0 {
		clear(func(c *Scenario) { c.DownLinks = nil })
	}
	if len(sc.DownSwitches) > 0 {
		clear(func(c *Scenario) { c.DownSwitches = nil })
	}
	if len(sc.ExtraFaultLinks) > 0 {
		clear(func(c *Scenario) { c.ExtraFaultLinks = nil })
	}
	if len(sc.ExtraFaultSwitches) > 0 {
		clear(func(c *Scenario) { c.ExtraFaultSwitches = nil })
	}
	for i := range sc.ExtraFaultLinks {
		i := i
		clear(func(c *Scenario) { c.ExtraFaultLinks = dropIndex(c.ExtraFaultLinks, i) })
	}
	for i := range sc.DownLinks {
		i := i
		clear(func(c *Scenario) { c.DownLinks = dropIndex(c.DownLinks, i) })
	}
	return out
}

func dropIndex(list []string, i int) []string {
	out := append([]string(nil), list[:i]...)
	return append(out, list[i+1:]...)
}

// reduceProtPass lowers each protection dimension by one.
func reduceProtPass(sc *Scenario) []*Scenario {
	var out []*Scenario
	if sc.Kc > 0 {
		c := sc.Clone()
		c.Kc--
		out = append(out, c)
	}
	if sc.Ke > 0 {
		c := sc.Clone()
		c.Ke--
		out = append(out, c)
	}
	if sc.Kv > 0 {
		c := sc.Clone()
		c.Kv--
		out = append(out, c)
	}
	return out
}

// dropDemandPass removes chunks of demand entries, delta-debugging style:
// halves first, then smaller chunks, down to single entries.
func dropDemandPass(sc *Scenario) []*Scenario {
	var out []*Scenario
	n := len(sc.Demands)
	for size := n / 2; size >= 1; size /= 2 {
		for lo := 0; lo+size <= n; lo += size {
			c := sc.Clone()
			c.Demands = append(append([]wire.DemandEntry(nil), c.Demands[:lo]...), c.Demands[lo+size:]...)
			if len(c.Demands) == 0 {
				continue
			}
			out = append(out, c)
		}
	}
	return out
}

// dropPrevPass drops previous-interval demand entries (or the whole list —
// an empty list defaults the previous state to the current demands).
func dropPrevPass(sc *Scenario) []*Scenario {
	var out []*Scenario
	if len(sc.PrevDemands) == 0 {
		return nil
	}
	c := sc.Clone()
	c.PrevDemands = nil
	out = append(out, c)
	for i := range sc.PrevDemands {
		c := sc.Clone()
		c.PrevDemands = append(append([]wire.DemandEntry(nil), c.PrevDemands[:i]...), c.PrevDemands[i+1:]...)
		out = append(out, c)
	}
	return out
}

// dropSwitchPass removes one switch (with its links, demands, faults, and
// relabel entry) per candidate.
func dropSwitchPass(sc *Scenario) []*Scenario {
	var out []*Scenario
	for _, sw := range sc.Topo.Switches {
		if c := removeSwitch(sc, sw.Name); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// dropLinkPass removes one physical link per candidate.
func dropLinkPass(sc *Scenario) []*Scenario {
	var out []*Scenario
	for _, l := range sc.Topo.PhysicalLinks() {
		if c := removeLink(sc, l); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// roundPass rounds capacities and demand rates to few significant digits,
// then to integers — small integer repros read far better than 15-digit
// floats.
func roundPass(sc *Scenario) []*Scenario {
	var out []*Scenario
	for _, digits := range []int{2, 1} {
		digits := digits
		c := sc.Clone()
		changed := false
		for i := range c.Topo.Links {
			if r := roundSig(c.Topo.Links[i].Capacity, digits); r != c.Topo.Links[i].Capacity && r > 0 {
				c.Topo.Links[i].Capacity = r
				changed = true
			}
		}
		for i := range c.Demands {
			if r := roundSig(c.Demands[i].Demand, digits); r != c.Demands[i].Demand && r > 0 {
				c.Demands[i].Demand = r
				changed = true
			}
		}
		for i := range c.PrevDemands {
			if r := roundSig(c.PrevDemands[i].Demand, digits); r != c.PrevDemands[i].Demand && r > 0 {
				c.PrevDemands[i].Demand = r
				changed = true
			}
		}
		if changed {
			out = append(out, c)
		}
	}
	return out
}

// roundSig rounds x to the given number of significant digits.
func roundSig(x float64, digits int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	mag := math.Pow(10, float64(digits-1)-math.Floor(math.Log10(math.Abs(x))))
	return math.Round(x*mag) / mag
}

// removeSwitch rebuilds the scenario without the named switch, dropping
// every reference to it (links, demands, faults, the relabel entry). It
// returns nil when the removal is inapplicable (last switch, or the
// mutation targets it).
func removeSwitch(sc *Scenario, name string) *Scenario {
	old := sc.Topo
	victim, err := wire.ResolveSwitch(old, name)
	if err != nil || old.NumSwitches() <= 2 {
		return nil
	}
	if m := sc.Mutation; m != nil {
		if m.Src == name || m.Dst == name || linkTouches(m.Link, name) {
			return nil
		}
	}

	c := sc.Clone()
	net := topology.NewNetwork(old.Name)
	newID := map[string]topology.SwitchID{}
	for _, sw := range old.Switches {
		if sw.ID == victim {
			continue
		}
		newID[sw.Name] = net.AddSwitch(sw.Name, sw.Site, sw.Lat, sw.Lon)
	}
	for _, l := range old.Links {
		if old.Physical(l.ID) != l.ID {
			continue
		}
		if l.Src == victim || l.Dst == victim {
			continue
		}
		src, dst := newID[old.Switches[l.Src].Name], newID[old.Switches[l.Dst].Name]
		if l.Twin == topology.None {
			net.AddLink(src, dst, l.Capacity)
		} else {
			net.AddDuplex(src, dst, l.Capacity)
		}
	}
	c.Topo = net

	c.Demands = filterDemands(c.Demands, name)
	c.PrevDemands = filterDemands(c.PrevDemands, name)
	if len(c.Demands) == 0 {
		return nil
	}
	c.DownLinks = filterLinks(c.DownLinks, name)
	c.ExtraFaultLinks = filterLinks(c.ExtraFaultLinks, name)
	c.DownSwitches = filterStrings(c.DownSwitches, name)
	c.ExtraFaultSwitches = filterStrings(c.ExtraFaultSwitches, name)

	if len(c.Relabel) > 0 {
		// Drop the victim from the permutation: remove its old-ID entry
		// and renumber the remaining old IDs downward.
		var perm []int
		for _, oldID := range c.Relabel {
			if oldID == int(victim) {
				continue
			}
			if oldID > int(victim) {
				oldID--
			}
			perm = append(perm, oldID)
		}
		c.Relabel = perm
	}
	return c
}

// removeLink rebuilds the scenario without one physical link (canonical
// direction given). Returns nil when the mutation targets it.
func removeLink(sc *Scenario, victim topology.LinkID) *Scenario {
	old := sc.Topo
	fwd := old.LinkName(victim)
	rev := ""
	if tw := old.Links[victim].Twin; tw != topology.None {
		rev = old.LinkName(tw)
	}
	if m := sc.Mutation; m != nil && (m.Link == fwd || (rev != "" && m.Link == rev)) {
		return nil
	}

	c := sc.Clone()
	net := topology.NewNetwork(old.Name)
	for _, sw := range old.Switches {
		net.AddSwitch(sw.Name, sw.Site, sw.Lat, sw.Lon)
	}
	for _, l := range old.Links {
		if old.Physical(l.ID) != l.ID {
			continue
		}
		if l.ID == victim {
			continue
		}
		if l.Twin == topology.None {
			net.AddLink(l.Src, l.Dst, l.Capacity)
		} else {
			net.AddDuplex(l.Src, l.Dst, l.Capacity)
		}
	}
	c.Topo = net
	c.DownLinks = removeStrings(c.DownLinks, fwd, rev)
	c.ExtraFaultLinks = removeStrings(c.ExtraFaultLinks, fwd, rev)
	return c
}

// linkTouches reports whether the "src>dst" link name involves the switch.
func linkTouches(link, sw string) bool {
	if link == "" {
		return false
	}
	src, dst := topology.LinkEnds(link)
	return src == sw || dst == sw
}

func filterDemands(entries []wire.DemandEntry, sw string) []wire.DemandEntry {
	var out []wire.DemandEntry
	for _, d := range entries {
		if d.Src == sw || d.Dst == sw {
			continue
		}
		out = append(out, d)
	}
	return out
}

func filterLinks(names []string, sw string) []string {
	var out []string
	for _, n := range names {
		if linkTouches(n, sw) {
			continue
		}
		out = append(out, n)
	}
	return out
}

func filterStrings(names []string, drop string) []string {
	var out []string
	for _, n := range names {
		if n == drop {
			continue
		}
		out = append(out, n)
	}
	return out
}

func removeStrings(names []string, drop ...string) []string {
	var out []string
	for _, n := range names {
		skip := false
		for _, d := range drop {
			if d != "" && n == d {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, n)
		}
	}
	return out
}

package sim

import (
	"math/rand"

	"ffc/internal/core"
	"ffc/internal/faults"
	"ffc/internal/metrics"
	"ffc/internal/parallel"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// OversubDataFaults reproduces Figure 1(a): for each interval, compute a TE
// state (plain TE by default; pass prot for an FFC variant), fail nLinks
// random physical links (or one switch when failSwitch is set), rescale,
// and record the maximum link oversubscription percentage. Intervals run
// across runtime.GOMAXPROCS(0) workers; each draws its fault set from a
// faults.DeriveSeed-derived RNG, so the distribution is bit-identical at
// any worker count.
func OversubDataFaults(sc Scenario, prot core.Protection, nLinks int, failSwitch bool) (*metrics.Dist, error) {
	solver := core.NewSolver(sc.Net, sc.Tun, core.Options{})
	states, err := solveSeries(solver, sc, prot)
	if err != nil {
		return nil, err
	}
	phys := physicalLinkIDs(sc.Net)
	samples := make([]float64, len(sc.Series))
	parallel.ForEach(len(sc.Series), func(t int) {
		rng := rand.New(rand.NewSource(faults.DeriveSeed(sc.Seed, int64(t))))
		down := map[topology.LinkID]bool{}
		downSw := map[topology.SwitchID]bool{}
		if failSwitch {
			downSw[topology.SwitchID(rng.Intn(sc.Net.NumSwitches()))] = true
		} else {
			for _, i := range rng.Perm(len(phys))[:min(nLinks, len(phys))] {
				down[phys[i]] = true
				if tw := sc.Net.Links[phys[i]].Twin; tw != topology.None {
					down[tw] = true
				}
			}
		}
		samples[t] = maxOversubPct(sc.Net, sc.Tun, states[t], down, downSw)
	})
	var dist metrics.Dist
	for _, s := range samples {
		dist.Add(s)
	}
	return &dist, nil
}

// OversubControlFaults reproduces Figure 1(b): simulate a network update
// every interval and make nStale random ingress switches keep the previous
// interval's configuration; record the maximum link oversubscription.
// Parallelized like OversubDataFaults: states first (independent unless
// kc > 0 chains them), then the per-interval stale replays.
func OversubControlFaults(sc Scenario, prot core.Protection, nStale int) (*metrics.Dist, error) {
	solver := core.NewSolver(sc.Net, sc.Tun, core.Options{})
	states, err := solveSeries(solver, sc, prot)
	if err != nil {
		return nil, err
	}
	srcs := ingressSwitches(sc.Tun)
	if len(states) == 0 {
		return &metrics.Dist{}, nil
	}
	// The first interval has no previous configuration to be stale on.
	samples := make([]float64, len(states)-1)
	parallel.ForEach(len(samples), func(i int) {
		t := i + 1
		rng := rand.New(rand.NewSource(faults.DeriveSeed(sc.Seed, int64(t))))
		stale := map[topology.SwitchID]bool{}
		for _, j := range rng.Perm(len(srcs))[:min(nStale, len(srcs))] {
			stale[srcs[j]] = true
		}
		samples[i] = maxOversubStalePct(sc.Net, sc.Tun, states[t], states[t-1], stale)
	})
	var dist metrics.Dist
	for _, s := range samples {
		dist.Add(s)
	}
	return &dist, nil
}

func physicalLinkIDs(net *topology.Network) []topology.LinkID {
	var out []topology.LinkID
	for _, l := range net.Links {
		if l.Twin == topology.None || l.ID < l.Twin {
			out = append(out, l.ID)
		}
	}
	return out
}

func ingressSwitches(tun *tunnel.Set) []topology.SwitchID {
	seen := map[topology.SwitchID]bool{}
	var out []topology.SwitchID
	for _, f := range tun.All() {
		if !seen[f.Src] {
			seen[f.Src] = true
			out = append(out, f.Src)
		}
	}
	return out
}

// maxOversubPct rescales every flow around the fault sets and returns the
// worst (load−cap)/cap×100 over surviving links (0 when none overloads).
func maxOversubPct(net *topology.Network, tun *tunnel.Set, st *core.State,
	down map[topology.LinkID]bool, downSw map[topology.SwitchID]bool) float64 {

	loads := map[topology.LinkID]float64{}
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
	worst := 0.0
	for l, load := range loads {
		if down[l] {
			continue
		}
		if over := (load - net.Links[l].Capacity) / net.Links[l].Capacity * 100; over > worst {
			worst = over
		}
	}
	return worst
}

// maxOversubStalePct computes the worst oversubscription when the switches
// in stale keep oldSt's splitting weights while rate limiters carry newSt's
// rates (the §2.2 situation).
func maxOversubStalePct(net *topology.Network, tun *tunnel.Set, newSt, oldSt *core.State,
	stale map[topology.SwitchID]bool) float64 {

	loads := map[topology.LinkID]float64{}
	for _, f := range tun.All() {
		rate := newSt.Rate[f]
		if rate == 0 {
			continue
		}
		w := newSt.Weights(f)
		if stale[f.Src] {
			if pa, ok := oldSt.Alloc[f]; ok && sum(pa) > 0 {
				w = tunnel.Weights(pa)
			}
		}
		for _, t := range tun.Tunnels(f) {
			if t.Index >= len(w) || w[t.Index] == 0 {
				continue
			}
			share := rate * w[t.Index]
			for _, l := range t.Links {
				loads[l] += share
			}
		}
	}
	worst := 0.0
	for l, load := range loads {
		if over := (load - net.Links[l].Capacity) / net.Links[l].Capacity * 100; over > worst {
			worst = over
		}
	}
	return worst
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

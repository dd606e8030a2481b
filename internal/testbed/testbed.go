// Package testbed emulates the paper's §7 evaluation: an 8-site WAN
// (Figure 9) with 1 Gbps inter-site links, geodesic propagation delays, a
// TE controller at New York (s5), link-liveness detection, ingress
// rescaling, and — without FFC — reactive TE recomputation. It produces the
// event timelines of Figure 11 and the resulting packet-loss accounting.
package testbed

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/faults"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Event is one timeline entry (Figure 11's rows).
type Event struct {
	At   time.Duration
	Kind string
	Site string
	Note string
}

func (e Event) String() string {
	return fmt.Sprintf("%8.1fms  %-22s %-4s %s", float64(e.At)/float64(time.Millisecond), e.Kind, e.Site, e.Note)
}

// Outcome is the result of one fault injection.
type Outcome struct {
	Events []Event
	// LossDuration is how long any link was congested or any traffic
	// blackholed.
	LossDuration time.Duration
	// LostBytes integrates loss (rate-units × seconds).
	LostBytes float64
	// ControllerReacted reports whether the TE controller had to intervene.
	ControllerReacted bool
}

// Emulation is a configured testbed.
type Emulation struct {
	Net *topology.Network
	Tun *tunnel.Set
	// Controller is the controller's site switch (the paper: s5, New York).
	Controller topology.SwitchID
	// DetectDelay is link-failure detection at the adjacent switch (5 ms).
	DetectDelay time.Duration
	// RescaleDelay is the ingress-local rescale time (2 ms).
	RescaleDelay time.Duration
	// ComputeDelay is the controller's TE recomputation time.
	ComputeDelay time.Duration
	// Switches models rule-update latency for reactive fixes.
	Switches faults.SwitchModel
}

// New returns an emulation over the Figure 9 testbed with the paper's
// measured delays.
func New() *Emulation {
	net := topology.Testbed()
	ctrl, _ := net.SwitchByName("s5")
	return &Emulation{
		Net:          net,
		Controller:   ctrl,
		DetectDelay:  5 * time.Millisecond,
		RescaleDelay: 2 * time.Millisecond,
		ComputeDelay: 50 * time.Millisecond,
		Switches:     faults.Optimistic(),
	}
}

// propagation returns the one-way propagation delay between two switches
// (fiber at ~2/3 c, shortest-path geodesic approximated by great circle).
func (e *Emulation) propagation(a, b topology.SwitchID) time.Duration {
	if a == b {
		return 0
	}
	km := e.Net.GeoDistanceKm(a, b)
	const fiberKmPerSec = 200000.0
	return time.Duration(km / fiberKmPerSec * float64(time.Second))
}

// FailLink injects a failure of the given physical link at t=0 under state
// and plays out detection, notification, rescaling, and (if congestion
// persists) the controller reaction. ruleUpdateOverride, when positive,
// replaces the sampled switch-update time for the reactive fix — Figure
// 11(b) vs 11(c) differ only in that number.
func (e *Emulation) FailLink(link topology.LinkID, st *core.State, rng *rand.Rand, ruleUpdateOverride time.Duration) *Outcome {
	out := &Outcome{}
	l := e.Net.Links[link]
	down := map[topology.LinkID]bool{link: true}
	if l.Twin != topology.None {
		down[l.Twin] = true
	}
	add := func(at time.Duration, kind, site, note string) {
		out.Events = append(out.Events, Event{At: at, Kind: kind, Site: site, Note: note})
	}
	siteName := func(v topology.SwitchID) string { return e.Net.Switches[v].Name }
	add(0, "link-failure", siteName(l.Src), fmt.Sprintf("link %s–%s down", siteName(l.Src), siteName(l.Dst)))

	detectAt := e.DetectDelay
	add(detectAt, "failure-detected", siteName(l.Src), "liveness protocol")

	// Which flows lose a tunnel, and when does each ingress rescale?
	type hit struct {
		flow      tunnel.Flow
		rescaleAt time.Duration
		lostRate  float64 // traffic blackholed until rescale
	}
	var hits []hit
	for _, f := range e.Tun.All() {
		rate := st.Rate[f]
		if rate == 0 {
			continue
		}
		w := st.Weights(f)
		var lost float64
		affected := false
		for _, t := range e.Tun.Tunnels(f) {
			if !t.Alive(e.Net, down, nil) {
				affected = true
				lost += rate * w[t.Index]
			}
		}
		if !affected {
			continue
		}
		notify := detectAt + e.propagation(l.Src, f.Src)
		rescale := notify + e.RescaleDelay
		hits = append(hits, hit{f, rescale, lost})
		add(notify, "failure-notified", siteName(f.Src), fmt.Sprintf("flow %s→%s", siteName(f.Src), siteName(f.Dst)))
		add(rescale, "rescaled", siteName(f.Src), "traffic moved to residual tunnels")
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].rescaleAt < hits[j].rescaleAt })

	// Blackhole loss until each ingress rescales.
	var lastRescale time.Duration
	for _, h := range hits {
		out.LostBytes += h.lostRate * h.rescaleAt.Seconds()
		if h.rescaleAt > lastRescale {
			lastRescale = h.rescaleAt
		}
	}
	if len(hits) > 0 {
		add(0, "loss-start", "", "blackhole on failed tunnels")
	}

	// Post-rescale link loads: is anything congested?
	loads := map[topology.LinkID]float64{}
	for _, f := range e.Tun.All() {
		rate := st.Rate[f]
		if rate == 0 {
			continue
		}
		tl := e.Tun.Rescale(f, st.Weights(f), rate, down, nil)
		for _, t := range e.Tun.Tunnels(f) {
			if tl[t.Index] == 0 {
				continue
			}
			for _, lk := range t.Links {
				loads[lk] += tl[t.Index]
			}
		}
	}
	var overloadRate float64
	var congested []topology.LinkID
	for lk, load := range loads {
		if down[lk] {
			continue
		}
		if over := load - e.Net.Links[lk].Capacity; over > 1e-9 {
			overloadRate += over
			congested = append(congested, lk)
		}
	}
	sort.Slice(congested, func(i, j int) bool { return congested[i] < congested[j] })

	if overloadRate <= 0 {
		add(lastRescale, "loss-stop", "", "no congestion after rescaling (FFC)")
		out.LossDuration = lastRescale
		sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
		return out
	}

	// Reactive path: controller hears, recomputes, updates the switches.
	for _, lk := range congested {
		add(lastRescale, "congestion-start", siteName(e.Net.Links[lk].Src),
			fmt.Sprintf("link %s–%s over capacity", siteName(e.Net.Links[lk].Src), siteName(e.Net.Links[lk].Dst)))
	}
	out.ControllerReacted = true
	heard := detectAt + e.propagation(l.Src, e.Controller)
	add(heard, "controller-notified", siteName(e.Controller), "")
	computed := heard + e.ComputeDelay
	add(computed, "te-recomputed", siteName(e.Controller), "new traffic distribution")

	applyTime := ruleUpdateOverride
	if applyTime <= 0 {
		applyTime, _ = e.Switches.SampleUpdate(rng)
	}
	// The controller updates the congested flows' ingresses; the slowest
	// gates relief. Propagation controller→ingress plus rule updates.
	var fixedAt time.Duration
	for _, f := range e.Tun.All() {
		if st.Rate[f] == 0 {
			continue
		}
		at := computed + e.propagation(e.Controller, f.Src) + applyTime
		if at > fixedAt {
			fixedAt = at
		}
	}
	add(fixedAt, "update-applied", "", "congestion relieved")
	add(fixedAt, "loss-stop", "", "")
	out.LostBytes += overloadRate * (fixedAt - lastRescale).Seconds()
	out.LossDuration = fixedAt

	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
	return out
}

// Fig10Setup reconstructs the §7 experiment: the two testbed flows s3→s7
// and s4→s5 (1 Gbps each) with hand-laid tunnels, plus the FFC and non-FFC
// traffic distributions of Figure 10. The non-FFC distribution backs
// s3→s7 with the tunnel through s4–s5, so when link s6–s7 fails the
// rescaled gigabit lands on s4–s5 (already carrying 0.5) and congests it;
// the FFC distribution backs it with s3–s5–s7 and moves s4→s5's overflow
// onto s4–s6–s5, which survives any single link failure.
func Fig10Setup() (net *topology.Network, tun *tunnel.Set, ffc, plain *core.State, err error) {
	net = topology.Testbed()
	get := func(name string) topology.SwitchID {
		id, ok := net.SwitchByName(name)
		if !ok {
			panic("testbed: missing switch " + name)
		}
		return id
	}
	s3, s4, s5, s6, s7 := get("s3"), get("s4"), get("s5"), get("s6"), get("s7")
	f37 := tunnel.Flow{Src: s3, Dst: s7}
	f45 := tunnel.Flow{Src: s4, Dst: s5}

	mk := func(f tunnel.Flow, hops ...topology.SwitchID) *tunnel.Tunnel {
		t := &tunnel.Tunnel{Flow: f, Switches: hops}
		for i := 0; i+1 < len(hops); i++ {
			l := net.FindLink(hops[i], hops[i+1])
			if l == topology.None {
				panic("testbed: missing link in hand-laid tunnel")
			}
			t.Links = append(t.Links, l)
		}
		return t
	}
	tun = tunnel.NewSet(net)
	tun.Add(f37,
		mk(f37, s3, s6, s7),     // primary
		mk(f37, s3, s4, s5, s7), // non-FFC backup (shares link s4–s5)
		mk(f37, s3, s5, s7),     // FFC backup
	)
	tun.Add(f45,
		mk(f45, s4, s5),     // direct
		mk(f45, s4, s3, s5), // non-FFC overflow path
		mk(f45, s4, s6, s5), // FFC overflow path (Fig 10's difference)
	)

	plain = core.NewState()
	plain.Rate[f37], plain.Alloc[f37] = 1, []float64{0.9, 0.1, 0}
	plain.Rate[f45], plain.Alloc[f45] = 1, []float64{0.5, 0.5, 0}

	ffc = core.NewState()
	ffc.Rate[f37], ffc.Alloc[f37] = 1, []float64{0.9, 0, 0.1}
	ffc.Rate[f45], ffc.Alloc[f45] = 1, []float64{0.5, 0, 0.5}

	cert, err := check.Certify(net, tun, ffc, ffc, check.Params{Prot: core.Protection{Ke: 1}})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("testbed: certifying the FFC Fig 10 state: %w", err)
	}
	if !cert.OK {
		return nil, nil, nil, nil, fmt.Errorf("testbed: FFC Fig 10 state not 1-link safe: %s", cert.Summary())
	}
	return net, tun, ffc, plain, nil
}

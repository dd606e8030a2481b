// Package faults models the failure processes and switch-update latency
// distributions used by the paper's evaluation (§8.1):
//
//   - data-plane failures: Poisson-like link and switch failure processes
//     calibrated to the paper's "a link fails every 30 minutes on average"
//     for L-Net, with failures persisting for one or more TE intervals;
//   - control-plane faults: per-switch configuration-update failures at the
//     0.1–1% rate the paper reports, plus empirical update-latency
//     distributions — the Realistic model follows B4's published RPC and
//     per-rule latencies (Fig 6a), the Optimistic model the paper's own
//     controlled lab measurements (Fig 6b).
//
// All sampling is deterministic in the caller-provided *rand.Rand.
package faults

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"ffc/internal/topology"
)

// LatencyModel is an empirical latency distribution represented as a
// piecewise-linear inverse CDF over (quantile, value) points.
type LatencyModel struct {
	// Points are (q, v) pairs with q ascending in [0,1].
	Q []float64
	V []time.Duration
}

// NewLatencyModel builds a model; the point lists must be equal-length,
// ascending, and span q=0..1.
func NewLatencyModel(q []float64, v []time.Duration) *LatencyModel {
	if len(q) != len(v) || len(q) < 2 || q[0] != 0 || q[len(q)-1] != 1 {
		panic("faults: malformed latency model")
	}
	if !sort.Float64sAreSorted(q) {
		panic("faults: quantiles not ascending")
	}
	return &LatencyModel{Q: q, V: v}
}

// Sample draws one latency.
func (m *LatencyModel) Sample(rng *rand.Rand) time.Duration {
	return m.Quantile(rng.Float64())
}

// Quantile returns the value at quantile p (piecewise-linear interpolation).
func (m *LatencyModel) Quantile(p float64) time.Duration {
	if p <= 0 {
		return m.V[0]
	}
	if p >= 1 {
		return m.V[len(m.V)-1]
	}
	i := sort.SearchFloat64s(m.Q, p)
	if i == 0 {
		return m.V[0]
	}
	q0, q1 := m.Q[i-1], m.Q[i]
	v0, v1 := float64(m.V[i-1]), float64(m.V[i])
	t := (p - q0) / (q1 - q0)
	return time.Duration(v0 + t*(v1-v0))
}

// SwitchModel bundles a control-plane behavior model (§8.1: Realistic vs
// Optimistic).
type SwitchModel struct {
	Name string
	// RPC is the per-update RPC delay distribution.
	RPC *LatencyModel
	// PerRule is the per-forwarding-rule update latency distribution.
	PerRule *LatencyModel
	// ConfigFailureRate is the probability one switch's configuration
	// update fails outright during a network update.
	ConfigFailureRate float64
	// RulesPerUpdate is the typical number of rules changed per switch per
	// network update (the paper: "commonly over 100 for L-Net").
	RulesPerUpdate int
}

// Realistic reproduces the B4-derived model: heavy RPC delays and per-rule
// latencies read off Figure 6(a), and a 1% configuration failure rate.
func Realistic() SwitchModel {
	return SwitchModel{
		Name: "Realistic",
		RPC: NewLatencyModel(
			[]float64{0, 0.10, 0.50, 0.75, 0.90, 0.99, 1},
			[]time.Duration{
				50 * time.Millisecond, 200 * time.Millisecond, time.Second,
				2 * time.Second, 3 * time.Second, 4500 * time.Millisecond, 5 * time.Second,
			}),
		PerRule: NewLatencyModel(
			[]float64{0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1},
			[]time.Duration{
				5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
				300 * time.Millisecond, time.Second, 2 * time.Second,
				4 * time.Second, 5 * time.Second,
			}),
		ConfigFailureRate: 0.01,
		RulesPerUpdate:    100,
	}
}

// Optimistic reproduces the controlled-lab model of Figure 6(b): 10 ms
// median and ~200 ms worst-case per-rule latency, negligible RPC delay, and
// no configuration failures.
func Optimistic() SwitchModel {
	return SwitchModel{
		Name: "Optimistic",
		RPC: NewLatencyModel(
			[]float64{0, 0.5, 1},
			[]time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}),
		PerRule: NewLatencyModel(
			[]float64{0, 0.25, 0.50, 0.75, 0.90, 0.99, 1},
			[]time.Duration{
				2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
				30 * time.Millisecond, 60 * time.Millisecond, 150 * time.Millisecond,
				250 * time.Millisecond,
			}),
		ConfigFailureRate: 0,
		RulesPerUpdate:    100,
	}
}

// SampleUpdate draws the total time for one switch to apply a network
// update (RPC + rules × per-rule; the paper's §2.3 additive model), and
// whether the update fails outright.
func (m SwitchModel) SampleUpdate(rng *rand.Rand) (time.Duration, bool) {
	if rng.Float64() < m.ConfigFailureRate {
		return 0, true
	}
	d := m.RPC.Sample(rng)
	for i := 0; i < m.RulesPerUpdate; i++ {
		d += m.PerRule.Sample(rng)
	}
	return d, false
}

// FaultKind distinguishes data-plane fault types.
type FaultKind int8

// Data-plane fault kinds.
const (
	LinkFailure FaultKind = iota
	SwitchFailure
)

// Fault is one data-plane failure event.
type Fault struct {
	Kind FaultKind
	// Link is the physical link (canonical direction) for LinkFailure.
	Link topology.LinkID
	// Switch is the failed switch for SwitchFailure.
	Switch topology.SwitchID
	// At is the offset within the TE interval when the fault strikes.
	At time.Duration
	// DownFor is how many TE intervals the element stays down (≥1).
	DownFor int
}

// FailureModel is the data-plane failure process.
type FailureModel struct {
	// LinkMTBF is the mean time between link failures network-wide
	// (the paper's L-Net: 30 minutes).
	LinkMTBF time.Duration
	// SwitchMTBF is the network-wide mean time between switch failures.
	SwitchMTBF time.Duration
	// Interval is the TE interval length (5 minutes in the paper).
	Interval time.Duration
	// MinDown/MaxDown bound the repair time in intervals.
	MinDown, MaxDown int
}

// LNetFailures returns the failure process of §8.1 calibrated to L-Net's
// logs: a link failure every 30 minutes, switch failures an order of
// magnitude rarer, 5-minute TE intervals, repairs within 1–4 intervals.
func LNetFailures() FailureModel {
	return FailureModel{
		LinkMTBF:   30 * time.Minute,
		SwitchMTBF: 6 * time.Hour,
		Interval:   5 * time.Minute,
		MinDown:    1,
		MaxDown:    4,
	}
}

// SampleInterval draws the faults striking during one TE interval over net.
// The per-element probability divides the network-wide rate by the number
// of elements (the paper derives S-Net's rates from L-Net's the same way).
func (m FailureModel) SampleInterval(net *topology.Network, rng *rand.Rand) []Fault {
	var out []Fault
	phys := net.PhysicalLinks()
	if m.LinkMTBF > 0 && len(phys) > 0 {
		pNet := float64(m.Interval) / float64(m.LinkMTBF) // expected failures per interval
		pLink := pNet / float64(len(phys))
		for _, l := range phys {
			if rng.Float64() < pLink {
				out = append(out, Fault{
					Kind: LinkFailure, Link: l,
					At:      time.Duration(rng.Float64() * float64(m.Interval)),
					DownFor: m.sampleDown(rng),
				})
			}
		}
	}
	if m.SwitchMTBF > 0 && net.NumSwitches() > 0 {
		pNet := float64(m.Interval) / float64(m.SwitchMTBF)
		pSw := pNet / float64(net.NumSwitches())
		for _, sw := range net.Switches {
			if rng.Float64() < pSw {
				out = append(out, Fault{
					Kind: SwitchFailure, Switch: sw.ID,
					At:      time.Duration(rng.Float64() * float64(m.Interval)),
					DownFor: m.sampleDown(rng),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

func (m FailureModel) sampleDown(rng *rand.Rand) int {
	lo, hi := m.MinDown, m.MaxDown
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// PickFaults draws a uniformly random fault set of up to nLinks distinct
// physical links (canonical direction) and nSwitches distinct switches,
// deterministic in rng. Unlike SampleInterval it imposes no failure process —
// it is the "adversary picks any ≤k elements" draw property-based scenario
// generation needs (internal/prop seeds pre-down sets and post-install
// faults with it).
func PickFaults(net *topology.Network, rng *rand.Rand, nLinks, nSwitches int) ([]topology.LinkID, []topology.SwitchID) {
	phys := net.PhysicalLinks()
	if nLinks > len(phys) {
		nLinks = len(phys)
	}
	var links []topology.LinkID
	if nLinks > 0 {
		for _, i := range rng.Perm(len(phys))[:nLinks] {
			links = append(links, phys[i])
		}
		sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	}
	if nSwitches > net.NumSwitches() {
		nSwitches = net.NumSwitches()
	}
	var sws []topology.SwitchID
	if nSwitches > 0 {
		for _, i := range rng.Perm(net.NumSwitches())[:nSwitches] {
			sws = append(sws, topology.SwitchID(i))
		}
		sort.Slice(sws, func(i, j int) bool { return sws[i] < sws[j] })
	}
	return links, sws
}

// DeriveSeed deterministically derives an independent RNG seed for one
// shard (a TE interval, a scenario replay, ...) of a seeded computation.
// Serial and parallel executions that seed each shard's generator with
// DeriveSeed(base, shard) draw identical randomness per shard, which is
// what makes the harness's parallel paths bit-identical to the serial
// ones. The mix is SplitMix64 over the combined inputs.
func DeriveSeed(base, shard int64) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + uint64(shard)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ExpectedLinkFailuresPerInterval is a convenience for tests/calibration.
func (m FailureModel) ExpectedLinkFailuresPerInterval() float64 {
	if m.LinkMTBF == 0 {
		return 0
	}
	return float64(m.Interval) / float64(m.LinkMTBF)
}

// Median returns the model's 50th-percentile latency.
func (m *LatencyModel) Median() time.Duration { return m.Quantile(0.5) }

// Mean estimates the distribution mean by numeric integration.
func (m *LatencyModel) Mean() time.Duration {
	const steps = 1000
	var acc float64
	for i := 0; i < steps; i++ {
		acc += float64(m.Quantile((float64(i) + 0.5) / steps))
	}
	return time.Duration(math.Round(acc / steps))
}

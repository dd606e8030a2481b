// Package demand generates and manipulates traffic demand for TE intervals
// (§8.1 of the paper): ingress-egress flows with a gravity-model base rate,
// diurnal variation and noise across 5-minute intervals, and a three-way
// priority partition (interactive / deadline / background) for the
// multi-priority experiments.
//
// Absolute units are arbitrary: experiments calibrate a global scale factor
// so that "99% of demands per interval are satisfied" defines traffic scale
// 1.0 (well-utilized), with 0.5 and 2.0 modelling well- and
// under-provisioned networks.
package demand

import (
	"math"
	"math/rand"

	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Matrix is the demand of every flow in one TE interval.
type Matrix map[tunnel.Flow]float64

// Total sums all demands (in deterministic flow order, so repeated runs
// accumulate identical floating-point results).
func (m Matrix) Total() float64 {
	var s float64
	for _, f := range m.Flows() {
		s += m[f]
	}
	return s
}

// Scale returns a copy with every demand multiplied by k.
func (m Matrix) Scale(k float64) Matrix {
	out := make(Matrix, len(m))
	for f, v := range m {
		out[f] = v * k
	}
	return out
}

// Clone deep-copies the matrix.
func (m Matrix) Clone() Matrix { return m.Scale(1) }

// Flows returns the matrix's flows in deterministic order.
func (m Matrix) Flows() []tunnel.Flow { return tunnel.SortedFlows(m) }

// Series is a sequence of per-interval matrices.
type Series []Matrix

// Flows lists the flows appearing anywhere in the series, in order of first
// appearance (each interval's flows sorted).
func (s Series) Flows() []tunnel.Flow {
	seen := map[tunnel.Flow]bool{}
	var out []tunnel.Flow
	for _, m := range s {
		for _, f := range m.Flows() {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// Scale returns a copy of the series with every interval multiplied by k.
func (s Series) Scale(k float64) Series {
	out := make(Series, len(s))
	for i, m := range s {
		out[i] = m.Scale(k)
	}
	return out
}

// Config parameterizes the generator.
type Config struct {
	// Intervals is the number of TE intervals to generate. Default 48.
	Intervals int
	// IntervalMinutes is the TE interval length. Default 5 (the paper's).
	IntervalMinutes int
	// EdgeSwitch selects which switch index within each site terminates
	// flows (flows are aggregated site-pair traffic entering at one
	// WAN-facing switch). Default 0.
	EdgeSwitch int
	// DiurnalAmplitude is the relative amplitude of the daily cycle.
	// Default 0.3.
	DiurnalAmplitude float64
	// NoiseSigma is the lognormal noise σ per interval. Default 0.15.
	NoiseSigma float64
	// GravityExponent attenuates demand with distance. Default 0.5.
	GravityExponent float64
}

func (c *Config) fill() {
	if c.Intervals == 0 {
		c.Intervals = 48
	}
	if c.IntervalMinutes == 0 {
		c.IntervalMinutes = 5
	}
	if c.DiurnalAmplitude == 0 {
		c.DiurnalAmplitude = 0.3
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.15
	}
	if c.GravityExponent == 0 {
		c.GravityExponent = 0.5
	}
}

// Generate builds a demand series over net: one flow per ordered site pair,
// terminating at each site's EdgeSwitch-th switch, with gravity-model base
// rates modulated by a site-local diurnal cycle and lognormal noise.
// The output is deterministic in rng.
func Generate(net *topology.Network, cfg Config, rng *rand.Rand) Series {
	cfg.fill()

	// Collect sites in first-appearance order and their edge switches.
	type site struct {
		name  string
		sw    topology.SwitchID
		mass  float64
		phase float64
	}
	var sites []site
	seen := map[string]int{}
	for _, s := range net.Switches {
		if _, ok := seen[s.Site]; !ok {
			seen[s.Site] = len(sites)
			sites = append(sites, site{name: s.Site, sw: s.ID})
		}
	}
	// Edge switch: the cfg.EdgeSwitch-th switch of the site (clamped).
	counts := map[string]int{}
	for _, s := range net.Switches {
		if counts[s.Site] == cfg.EdgeSwitch {
			sites[seen[s.Site]].sw = s.ID
		}
		counts[s.Site]++
	}
	for i := range sites {
		sites[i].mass = math.Exp(rng.NormFloat64() * 0.6)
		sites[i].phase = rng.Float64()
	}

	// Gravity base matrix.
	base := make(Matrix)
	var maxBase float64
	for i := range sites {
		for j := range sites {
			if i == j {
				continue
			}
			d := net.GeoDistanceKm(sites[i].sw, sites[j].sw)
			g := sites[i].mass * sites[j].mass / math.Pow(1+d/1000, cfg.GravityExponent)
			base[tunnel.Flow{Src: sites[i].sw, Dst: sites[j].sw}] = g
			if g > maxBase {
				maxBase = g
			}
		}
	}
	for f := range base {
		base[f] /= maxBase // normalize to (0, 1]
	}

	intervalsPerDay := float64(24*60) / float64(cfg.IntervalMinutes)
	series := make(Series, cfg.Intervals)
	for t := range series {
		m := make(Matrix, len(base))
		for i := range sites {
			for j := range sites {
				if i == j {
					continue
				}
				f := tunnel.Flow{Src: sites[i].sw, Dst: sites[j].sw}
				diurnal := 1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*(float64(t)/intervalsPerDay+sites[i].phase))
				noise := math.Exp(rng.NormFloat64() * cfg.NoiseSigma)
				m[f] = base[f] * diurnal * noise
			}
		}
		series[t] = m
	}
	return series
}

// Priority identifies a traffic class, higher value = higher priority.
type Priority int

// Priority levels, following SWAN's service classes (§8.1).
const (
	Low  Priority = iota // background (e.g. replication): congestion-tolerant
	Med                  // deadline-driven transfers
	High                 // interactive: loss/delay sensitive
	NumPriorities
)

func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Med:
		return "med"
	case Low:
		return "low"
	}
	return "?"
}

// Split is a per-flow priority composition; fractions sum to 1.
type Split struct {
	High, Med, Low float64
}

// RandomSplits draws a stable per-flow priority mix: high is the smallest
// share (interactive traffic is a minority, keeping FFC's high-priority
// overhead affordable, per §8.2's recommendation).
func RandomSplits(flows []tunnel.Flow, rng *rand.Rand) map[tunnel.Flow]Split {
	out := make(map[tunnel.Flow]Split, len(flows))
	for _, f := range flows {
		h := 0.10 + rng.Float64()*0.15 // 10–25%
		m := 0.20 + rng.Float64()*0.20 // 20–40%
		out[f] = Split{High: h, Med: m, Low: 1 - h - m}
	}
	return out
}

// ByPriority partitions a matrix into [Low, Med, High] matrices (indexable
// by Priority) according to splits. Flows absent from splits go entirely to
// Low.
func ByPriority(m Matrix, splits map[tunnel.Flow]Split) [NumPriorities]Matrix {
	var out [NumPriorities]Matrix
	for p := range out {
		out[p] = make(Matrix, len(m))
	}
	for f, d := range m {
		s, ok := splits[f]
		if !ok {
			s = Split{Low: 1}
		}
		out[High][f] = d * s.High
		out[Med][f] = d * s.Med
		out[Low][f] = d * s.Low
	}
	return out
}

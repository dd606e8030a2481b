// Package sim is the data-driven evaluation harness of §8: it replays a
// demand series over a network, computes TE (with or without FFC) every
// interval, injects data- and control-plane faults from the paper's failure
// models, and accounts throughput and data loss exactly as the paper does —
// blackhole loss between a failure and ingress rescaling, and congestion
// loss integrated over the time and degree by which links are
// oversubscribed, with strict-priority dropping across traffic classes.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/metrics"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Scenario fixes the network, demand series, and fault environment shared
// by the runs being compared (FFC vs non-FFC use identical scenarios and
// seeds, so they see identical faults).
type Scenario struct {
	Net      *topology.Network
	Tun      *tunnel.Set
	Series   demand.Series
	Interval time.Duration
	Failures faults.FailureModel
	Switches faults.SwitchModel
	Seed     int64
	// Parallelism bounds the worker count for the scenario's
	// embarrassingly-parallel work: independent TE intervals in the
	// oversubscription replays and independent runs in RunMany. ≤ 0 means
	// all cores (runtime.GOMAXPROCS(0)); 1 forces the serial path. Every
	// interval draws from its own faults.DeriveSeed-derived RNG, so
	// results are bit-identical at any setting.
	Parallelism int
	// Ctx, when non-nil, cancels the run: the interval loop stops at the
	// next interval boundary, and the in-flight solve is cancelled through
	// the budget path (within one simplex iteration batch). A cancelled run
	// returns its partial Result with Interrupted set rather than an error,
	// so long CLI runs can emit what they measured on SIGINT/SIGTERM.
	Ctx context.Context
}

// PriorityConfig enables multi-priority simulation (§8.4).
type PriorityConfig struct {
	// Splits partitions each flow's demand across classes.
	Splits map[tunnel.Flow]demand.Split
	// Prot is the per-class protection level, indexed by demand.Priority.
	Prot [demand.NumPriorities]core.Protection
}

// RunConfig selects the TE approach under test. Every class solves its
// intervals on its own core.Session through core.Session.Step, the control
// step ffcd runs: the model and basis carry over from interval to interval,
// so a run can differ from cold solves only in the simplex's choice among
// alternate optima.
type RunConfig struct {
	// Prot is the single-priority protection level; core.None disables FFC
	// (the baseline).
	Prot core.Protection
	// Multi switches to the multi-priority cascade; Prot is then ignored.
	Multi *PriorityConfig
	// SolverOpts tunes the FFC solver (encoding, §6 mice, ...).
	SolverOpts core.Options
	// DetectDelay is failure detection + ingress notification before
	// rescaling (the paper's testbed: ≈50 ms).
	DetectDelay time.Duration
	// ControlDetect is how long the controller takes to notice a failed
	// switch update and begin repair.
	ControlDetect time.Duration
	// NoCarryover disables adding unserved demand to the next interval
	// (micro-benchmarks use this).
	NoCarryover bool
	// DetectDelaySet / ControlDetectSet mark an explicit zero in the
	// corresponding field as intentional (instantaneous detection) instead
	// of "unset, use the default" — the same sentinel-free pattern as
	// experiments.EnvConfig.SeedSet.
	DetectDelaySet   bool
	ControlDetectSet bool
	// SolverDeadline bounds each TE computation's wall clock; a solve that
	// misses it degrades the interval to the last installed allocation
	// (core.Degrade) instead of stalling the control loop. 0 = unlimited.
	SolverDeadline time.Duration
	// SolverFaults injects controller failures (timeout / crash / stale
	// result) per interval to measure availability under controller
	// trouble; the zero value injects nothing and consumes no randomness.
	SolverFaults faults.SolverFaultModel
	// OnPlan, when non-nil, observes every installed per-class state right
	// after its interval completes — the simulator's counterpart of ffcd's
	// install trace (both run core.Session.Step), used to trace runs for
	// independent certification (cmd/ffcsim -trace → cmd/ffccheck). The
	// record's fields are shared with the simulator; the callback must not
	// mutate them.
	OnPlan func(PlanRecord)
}

// PlanRecord is one per-class installed state handed to RunConfig.OnPlan.
type PlanRecord struct {
	// Interval is the 0-based interval index.
	Interval int
	// Class is the priority class (0 in single-priority runs).
	Class demand.Priority
	// Prot is the protection the state actually achieved: the class's
	// configured level, or core.None after the unprotected infeasibility
	// retry or a degraded fallback.
	Prot core.Protection
	// Degraded is the class's degradation reason ("" when its solve
	// landed).
	Degraded string
	// Demands is what the class asked for this interval (incl. backlog).
	Demands demand.Matrix
	// Prev and State are the previously and newly installed states.
	Prev, State *core.State
	// DownLinks / DownSwitches were known failed when the state was
	// computed.
	DownLinks    map[topology.LinkID]bool
	DownSwitches map[topology.SwitchID]bool
}

func (c *RunConfig) fill() {
	if c.DetectDelay == 0 && !c.DetectDelaySet {
		c.DetectDelay = 50 * time.Millisecond
	}
	if c.ControlDetect == 0 && !c.ControlDetectSet {
		c.ControlDetect = time.Second
	}
}

// PriorityResult aggregates per-class accounting.
type PriorityResult struct {
	DemandBytes     float64
	GrantedBytes    float64
	LossBytes       float64
	BlackholeBytes  float64
	CongestionBytes float64
}

// DeliveredBytes is granted minus lost.
func (p PriorityResult) DeliveredBytes() float64 { return p.GrantedBytes - p.LossBytes }

// IntervalRecord is one TE interval's outcome in the run timeline.
type IntervalRecord struct {
	// Demand and Granted are rates (units), summed over classes.
	Demand, Granted float64
	// Lost is the interval's lost bytes (unit·s).
	Lost float64
	// LinkFaults and SwitchFaults strike during the interval;
	// StaleSwitches failed this interval's configuration push.
	LinkFaults, SwitchFaults, StaleSwitches int
	// MaxOversub is the interval's worst link oversubscription ratio.
	MaxOversub float64
	// Degraded is empty when the interval's TE solves all landed; otherwise
	// the reason the interval fell back to the last-good allocation
	// ("timeout", "crash", "stale", "deadline", "infeasible",
	// "solver-error", "cancelled").
	Degraded string
}

// Result is one run's aggregate outcome. "Bytes" are rate-units × seconds.
type Result struct {
	Intervals  int
	Total      PriorityResult
	ByPriority [demand.NumPriorities]PriorityResult
	// Timeline records one entry per interval, in order.
	Timeline []IntervalRecord
	// MaxOversub collects each interval's worst link oversubscription
	// ratio ((load−cap)/cap, 0 when none).
	MaxOversub metrics.Dist
	// SolveTime collects per-interval TE computation times.
	SolveTime metrics.Dist
	// Reactions counts controller interventions.
	Reactions int
	// InfeasibleIntervals counts intervals where the FFC LP had no
	// feasible solution and the run fell back to the unprotected TE.
	InfeasibleIntervals int
	// DegradedIntervals counts intervals that served the last-good
	// allocation because a solve missed its deadline, crashed, or arrived
	// stale (see IntervalRecord.Degraded for per-interval reasons).
	DegradedIntervals int
	// DegradedOversub collects MaxOversub over degraded intervals only —
	// the availability cost of controller failures.
	DegradedOversub metrics.Dist
	// Interrupted marks a run cancelled via Scenario.Ctx: the aggregates
	// cover only the intervals that completed.
	Interrupted bool
}

// ThroughputRatioVs returns this run's delivered bytes over the baseline's
// (the paper's throughput ratio).
func (r *Result) ThroughputRatioVs(base *Result) float64 {
	return metrics.SafeRatio(r.Total.DeliveredBytes(), base.Total.DeliveredBytes(), 1)
}

// LossRatioVs returns this run's lost bytes over the baseline's (the
// paper's data loss ratio).
func (r *Result) LossRatioVs(base *Result) float64 {
	return metrics.SafeRatio(r.Total.LossBytes, base.Total.LossBytes, 0)
}

// activeFault is a data-plane fault in progress.
type activeFault struct {
	faults.Fault
	// remaining intervals (including the current one).
	remaining int
	// struck is true once its onset interval has passed (it is visible at
	// interval start thereafter).
	struck bool
}

// Run executes the scenario under cfg.
func Run(sc Scenario, cfg RunConfig) (*Result, error) {
	cfg.fill()
	if sc.Interval == 0 {
		sc.Interval = 5 * time.Minute
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	res := &Result{}

	solver := core.NewSolver(sc.Net, sc.Tun, cfg.SolverOpts)

	// Per-priority previous states (single-priority runs use index 0).
	classes := classesOf(cfg)
	// One solve session per class: the interval loop is serial, so each
	// class's model and basis carry over interval to interval.
	sessions := make([]*core.Session, len(classes))
	for i := range sessions {
		sessions[i] = solver.NewSession()
	}
	prev := make([]*core.State, len(classes))
	for i := range prev {
		prev[i] = core.NewState()
	}
	backlog := make([]demand.Matrix, len(classes))
	for i := range backlog {
		backlog[i] = demand.Matrix{}
	}

	var active []activeFault
	for t, m := range sc.Series {
		if sc.Ctx != nil && sc.Ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		res.Intervals++
		iv := intervalState{
			sc: &sc, cfg: &cfg, rng: rng,
			res: res, classes: classes, sessions: sessions,
		}
		// Elements already down at interval start.
		iv.downLinks, iv.downSwitches = map[topology.LinkID]bool{}, map[topology.SwitchID]bool{}
		for _, af := range active {
			if af.struck && af.remaining > 0 {
				markFault(sc.Net, af.Fault, iv.downLinks, iv.downSwitches)
			}
		}

		// Controller fault for this interval, if injected (one decision per
		// interval: a dead controller affects every class's solve).
		if k, ok := cfg.SolverFaults.Sample(t, rng); ok {
			iv.solverFault = &k
		}

		// Per-class demand for this interval (plus backlog).
		var splits map[tunnel.Flow]demand.Split
		if cfg.Multi != nil {
			splits = cfg.Multi.Splits
		}
		iv.demands = classDemands(m, classes, splits, backlog)

		// Compute TE per class (priority cascade shares residual capacity).
		if err := iv.solveTE(prev); err != nil {
			return nil, fmt.Errorf("sim: interval %d: %w", t, err)
		}

		// Control-plane outcomes for this interval's update.
		iv.sampleControlFaults()

		// New data-plane faults striking during this interval.
		newFaults := sc.Failures.SampleInterval(sc.Net, rng)
		var striking []activeFault
		for _, f := range newFaults {
			if faultAlreadyDown(sc.Net, f, iv.downLinks, iv.downSwitches) {
				continue
			}
			striking = append(striking, activeFault{Fault: f, remaining: f.DownFor})
		}
		iv.striking = striking

		// Integrate losses over the interval.
		lostBefore := res.Total.LossBytes
		worstOver := iv.integrate()
		rec := IntervalRecord{
			Lost:          res.Total.LossBytes - lostBefore,
			StaleSwitches: len(iv.staleUntil),
			MaxOversub:    worstOver,
			Degraded:      iv.degraded,
		}
		if iv.degraded != "" {
			res.DegradedIntervals++
			res.DegradedOversub.Add(worstOver)
		}
		for _, af := range striking {
			if af.Kind == faults.LinkFailure {
				rec.LinkFaults++
			} else {
				rec.SwitchFaults++
			}
		}

		// Bookkeeping: backlog, previous states, fault aging.
		for ci := range classes {
			granted := iv.states[ci].TotalRate()
			dem := iv.demands[ci].Total()
			res.ByPriority[classes[ci]].DemandBytes += dem * sc.Interval.Seconds()
			res.ByPriority[classes[ci]].GrantedBytes += granted * sc.Interval.Seconds()
			res.Total.DemandBytes += dem * sc.Interval.Seconds()
			res.Total.GrantedBytes += granted * sc.Interval.Seconds()
			if !cfg.NoCarryover {
				backlog[ci] = nextBacklog(iv.demands[ci], iv.states[ci])
			}
			if cfg.OnPlan != nil {
				cfg.OnPlan(PlanRecord{
					Interval:     t,
					Class:        classes[ci],
					Prot:         iv.classProt[ci],
					Degraded:     iv.classDegraded[ci],
					Demands:      iv.demands[ci],
					Prev:         prev[ci],
					State:        iv.states[ci],
					DownLinks:    iv.downLinks,
					DownSwitches: iv.downSwitches,
				})
			}
			prev[ci] = iv.states[ci]
			rec.Demand += dem
			rec.Granted += granted
		}
		res.Timeline = append(res.Timeline, rec)

		var stillActive []activeFault
		for _, af := range active {
			if af.struck {
				af.remaining--
			}
			if af.remaining > 0 {
				stillActive = append(stillActive, af)
			}
		}
		for _, af := range striking {
			af.struck = true
			af.remaining-- // the onset interval counts toward DownFor
			if af.remaining > 0 {
				stillActive = append(stillActive, af)
			}
		}
		active = stillActive
	}
	return res, nil
}

// classesOf returns the priority classes simulated, highest first (the
// cascade order); single-priority runs use a single Low-class slot.
func classesOf(cfg RunConfig) []demand.Priority {
	if cfg.Multi == nil {
		return []demand.Priority{demand.Low}
	}
	return []demand.Priority{demand.High, demand.Med, demand.Low}
}

// classDemands splits the interval matrix per class and adds backlog.
func classDemands(m demand.Matrix, classes []demand.Priority, splits map[tunnel.Flow]demand.Split, backlog []demand.Matrix) []demand.Matrix {
	out := make([]demand.Matrix, len(classes))
	if len(classes) == 1 {
		out[0] = m.Clone()
	} else {
		// classes are [High Med Low]; ByPriority indexes by Priority.
		parts := demand.ByPriority(m, splits)
		for i, p := range classes {
			out[i] = parts[p].Clone()
		}
	}
	for i := range out {
		for f, b := range backlog[i] {
			// Cap carried-over demand to keep overloaded runs bounded.
			if b > 4*out[i][f] && out[i][f] > 0 {
				b = 4 * out[i][f]
			}
			out[i][f] += b
		}
	}
	return out
}

// nextBacklog computes unserved demand carried to the next interval.
func nextBacklog(dem demand.Matrix, st *core.State) demand.Matrix {
	out := demand.Matrix{}
	for f, d := range dem {
		if rest := d - st.Rate[f]; rest > 1e-9 {
			out[f] = rest
		}
	}
	return out
}

func markFault(net *topology.Network, f faults.Fault, dl map[topology.LinkID]bool, ds map[topology.SwitchID]bool) {
	switch f.Kind {
	case faults.LinkFailure:
		dl[f.Link] = true
		if tw := net.Links[f.Link].Twin; tw != topology.None {
			dl[tw] = true
		}
	case faults.SwitchFailure:
		ds[f.Switch] = true
	}
}

func faultAlreadyDown(net *topology.Network, f faults.Fault, dl map[topology.LinkID]bool, ds map[topology.SwitchID]bool) bool {
	switch f.Kind {
	case faults.LinkFailure:
		return dl[f.Link]
	case faults.SwitchFailure:
		return ds[f.Switch]
	}
	return false
}

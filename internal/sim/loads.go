package sim

import (
	"math/rand"
	"sort"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// obsIntervalSolve is the per-interval TE solve latency distribution for
// simulated scenarios (one sample per interval per priority class).
var obsIntervalSolve = obs.NewHistogram("sim.interval_solve")

// intervalState is the working state of one simulated TE interval.
type intervalState struct {
	sc      *Scenario
	cfg     *RunConfig
	rng     *rand.Rand
	res     *Result
	classes []demand.Priority
	// sessions holds one core.Session per class: each class's LP model and
	// simplex basis carry over from interval to interval.
	sessions []*core.Session

	downLinks    map[topology.LinkID]bool
	downSwitches map[topology.SwitchID]bool
	demands      []demand.Matrix
	states       []*core.State
	prev         []*core.State

	// classProt is the protection each class's installed state actually
	// achieved (core.None after the unprotected infeasibility retry or a
	// degraded fallback); classDegraded is the per-class degradation
	// reason. Both feed RunConfig.OnPlan.
	classProt     []core.Protection
	classDegraded []string

	// staleUntil maps ingress switches whose configuration update failed
	// to the moment their repair completes.
	staleUntil map[topology.SwitchID]time.Duration

	striking []activeFault

	// solverFault is this interval's injected controller failure, if any.
	solverFault *faults.SolverFaultKind
	// degraded is set to the reason the interval fell back to the
	// last-good allocation ("" when all solves landed).
	degraded string
}

// solveTE computes this interval's TE per class, cascading residual
// capacity (§5.1). Each class runs the controller's control step
// (core.Session.Step) on its own session: an infeasible protected LP is
// retried unprotected, and every other solve failure — a missed deadline,
// a crashed solver, a plan arriving after its installation window —
// degrades the class to its last successfully installed allocation.
// solveTE itself never fails on solver trouble, which is the whole point of
// the robust control loop.
func (iv *intervalState) solveTE(prev []*core.State) error {
	iv.prev = prev
	iv.states = make([]*core.State, len(iv.classes))
	iv.classProt = make([]core.Protection, len(iv.classes))
	iv.classDegraded = make([]string, len(iv.classes))
	residual := map[topology.LinkID]float64{}
	for _, l := range iv.sc.Net.Links {
		residual[l.ID] = l.Capacity
	}
	for ci := range iv.classes {
		prot := iv.cfg.Prot
		if iv.cfg.Multi != nil {
			prot = iv.cfg.Multi.Prot[iv.classes[ci]]
		}
		in := core.Input{
			Demands:      iv.demands[ci],
			Prot:         prot,
			Prev:         prev[ci],
			Capacity:     cloneCaps(residual),
			DownLinks:    iv.downLinks,
			DownSwitches: iv.downSwitches,
		}
		in.Budget.Deadline = iv.cfg.SolverDeadline
		in.Budget.Ctx = iv.sc.Ctx
		st, achieved, reason, stats := iv.sessions[ci].Step(in, iv.solverFault)
		switch {
		case reason != "":
			if iv.degraded == "" {
				iv.degraded = reason
				core.NoteDegradedInterval()
			}
		case achieved != prot:
			// The protected LP was infeasible; the unprotected retry landed.
			iv.res.InfeasibleIntervals++
		}
		if stats.Outcome == core.OutcomeOptimal {
			iv.res.SolveTime.Add(stats.SolveTime.Seconds())
			if obs.Enabled() {
				obsIntervalSolve.ObserveDuration(stats.SolveTime)
			}
		}
		iv.states[ci] = st
		iv.classProt[ci] = achieved
		iv.classDegraded[ci] = reason
		// §5.1: lower classes use capacity net of the traffic higher
		// classes *actually* send (weights×rate), not their allocations —
		// the protection headroom is reusable because priority queueing
		// sheds the lower class when faults make the higher one expand.
		for l, u := range st.ActualLinkLoads(iv.sc.Tun) {
			residual[l] -= u
			if residual[l] < 0 {
				residual[l] = 0
			}
		}
	}
	return nil
}

func cloneCaps(m map[topology.LinkID]float64) map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sampleControlFaults decides which ingress switches fail to apply this
// interval's configuration and when they get repaired. Successful updates
// are treated as instantaneous at interval start (transient mixing during
// rollout affects FFC and the baseline identically and is the subject of
// §5.2's multi-step updates, simulated separately).
func (iv *intervalState) sampleControlFaults() {
	iv.staleUntil = map[topology.SwitchID]time.Duration{}
	seen := map[topology.SwitchID]bool{}
	for _, f := range iv.sc.Tun.All() {
		if seen[f.Src] || iv.downSwitches[f.Src] {
			continue
		}
		seen[f.Src] = true
		if iv.rng.Float64() >= iv.sc.Switches.ConfigFailureRate {
			continue
		}
		// Repair: detection plus repeated update attempts.
		repair := iv.cfg.ControlDetect
		for {
			d, failed := iv.sc.Switches.SampleUpdate(iv.rng)
			if !failed {
				repair += d
				break
			}
			repair += iv.cfg.ControlDetect
		}
		iv.staleUntil[f.Src] = repair
	}
}

// reactionTime samples how long the controller takes to compute and install
// a new TE after detecting an event at time at. The computation term is a
// fixed Table-2-scale constant (not the measured wall time, which would
// make runs nondeterministic).
func (iv *intervalState) reactionTime(at time.Duration) time.Duration {
	compute := 500 * time.Millisecond
	// Network-wide update: the slowest of the ingress switches bounds it.
	var worst time.Duration
	for i := 0; i < 8; i++ {
		d, failed := iv.sc.Switches.SampleUpdate(iv.rng)
		if failed {
			d = iv.cfg.ControlDetect * 4
		}
		if d > worst {
			worst = d
		}
	}
	return at + iv.cfg.ControlDetect/2 + compute + worst
}

// integrate walks the interval's piecewise-constant segments, accumulates
// blackhole and congestion losses, and returns the interval's worst link
// oversubscription ratio.
func (iv *intervalState) integrate() float64 {
	T := iv.sc.Interval

	// Determine the reaction moment, if any.
	reactAt := time.Duration(-1)
	prot := iv.cfg.Prot
	if iv.cfg.Multi != nil {
		prot = iv.cfg.Multi.Prot[demand.High] // strongest class gates reaction
	}
	// Only faults striking after this interval's TE computation count
	// against the protection budget — the interval-start solve already
	// routed around anything that was down.
	linkFaults, switchFaults := 0, 0
	for _, af := range iv.striking {
		if af.Kind == faults.LinkFailure {
			linkFaults++
		} else {
			switchFaults++
		}
		exceeded := linkFaults > prot.Ke || switchFaults > prot.Kv
		if prot == core.None {
			exceeded = true
		}
		if exceeded && reactAt < 0 {
			reactAt = iv.reactionTime(af.At + iv.cfg.DetectDelay)
		}
	}
	// Stale switches repair on their own per-switch timelines (already
	// event points below); no global reaction is modelled for them.
	if reactAt >= 0 {
		iv.res.Reactions++
	}

	// Event points: fault onsets, rescale moments, stale repairs,
	// reaction completion.
	pts := map[time.Duration]bool{0: true, T: true}
	addPt := func(d time.Duration) {
		if d > 0 && d < T {
			pts[d] = true
		}
	}
	for _, af := range iv.striking {
		addPt(af.At)
		addPt(af.At + iv.cfg.DetectDelay)
	}
	for _, until := range iv.staleUntil {
		addPt(until)
	}
	if reactAt > 0 {
		addPt(reactAt)
	}
	var times []time.Duration
	for d := range pts {
		times = append(times, d)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	maxOver := 0.0
	for i := 0; i+1 < len(times); i++ {
		from, to := times[i], times[i+1]
		dur := (to - from).Seconds()
		if dur <= 0 {
			continue
		}
		reacted := reactAt >= 0 && from >= reactAt
		over := iv.segmentLoss(from, dur, reacted)
		if over > maxOver {
			maxOver = over
		}
	}
	iv.res.MaxOversub.Add(maxOver)
	return maxOver
}

// segmentLoss computes the loss rates during [from, from+dur) and
// accumulates bytes into the result; it returns the segment's worst link
// oversubscription ratio. When reacted is true, the controller has already
// rebalanced: congestion and blackholes are considered resolved.
func (iv *intervalState) segmentLoss(from time.Duration, dur float64, reacted bool) float64 {
	if reacted {
		return 0
	}
	net := iv.sc.Net

	// Fault visibility in this segment.
	knownDown := map[topology.LinkID]bool{}
	knownDownSw := map[topology.SwitchID]bool{}
	for l, d := range iv.downLinks {
		if d {
			knownDown[l] = true
		}
	}
	for v := range iv.downSwitches {
		knownDownSw[v] = true
	}
	unknownDead := map[topology.LinkID]bool{}
	unknownDeadSw := map[topology.SwitchID]bool{}
	for _, af := range iv.striking {
		if af.At > from {
			continue // not struck yet
		}
		detected := af.At+iv.cfg.DetectDelay <= from
		switch af.Kind {
		case faults.LinkFailure:
			ids := []topology.LinkID{af.Link}
			if tw := net.Links[af.Link].Twin; tw != topology.None {
				ids = append(ids, tw)
			}
			for _, id := range ids {
				if detected {
					knownDown[id] = true
				} else {
					unknownDead[id] = true
				}
			}
		case faults.SwitchFailure:
			if detected {
				knownDownSw[af.Switch] = true
			} else {
				unknownDeadSw[af.Switch] = true
			}
		}
	}

	// Per-link, per-class loads; blackhole loss accrues directly.
	type linkLoad struct{ byClass []float64 }
	loads := map[topology.LinkID]*linkLoad{}
	for ci := range iv.classes {
		st := iv.states[ci]
		prev := iv.prev[ci]
		for _, f := range iv.sc.Tun.All() {
			rate := st.Rate[f]
			weights := st.Weights(f)
			if until, stale := iv.staleUntil[f.Src]; stale && from < until {
				// Stale ingress: old weights with the new rate (Eqn 8's
				// synced-limiter model) — when the flow existed before.
				if pa, ok := prev.Alloc[f]; ok && sum(pa) > 0 {
					weights = tunnel.Weights(pa)
				}
			}
			if rate == 0 {
				continue
			}
			if knownDownSw[f.Src] || knownDownSw[f.Dst] || unknownDeadSw[f.Src] || unknownDeadSw[f.Dst] {
				// Endpoint dead: everything is lost (blackhole at the
				// edge) until reaction.
				iv.addBlackhole(ci, rate*dur)
				continue
			}
			// Blackhole: traffic sent into undetected-dead tunnels.
			tl := iv.sc.Tun.Rescale(f, weights, rate, knownDown, knownDownSw)
			var alive float64
			for _, t := range iv.sc.Tun.Tunnels(f) {
				share := tl[t.Index]
				if share == 0 {
					continue
				}
				dead := false
				for _, l := range t.Links {
					if unknownDead[l] {
						dead = true
						break
					}
				}
				for _, v := range t.Switches {
					if unknownDeadSw[v] {
						dead = true
						break
					}
				}
				if dead {
					iv.addBlackhole(ci, share*dur)
					continue
				}
				alive += share
				for _, l := range t.Links {
					ll := loads[l]
					if ll == nil {
						ll = &linkLoad{byClass: make([]float64, len(iv.classes))}
						loads[l] = ll
					}
					ll.byClass[ci] += share
				}
			}
			if alive == 0 && sum(tl) == 0 {
				// No residual tunnels at all: the whole rate blackholes.
				iv.addBlackhole(ci, rate*dur)
			}
		}
	}

	// Congestion loss with strict priority queueing (classes are ordered
	// highest first). Links are visited in ID order so accumulated losses
	// are bit-for-bit reproducible (map iteration would perturb float
	// rounding between runs).
	linkIDs := make([]topology.LinkID, 0, len(loads))
	for l := range loads {
		linkIDs = append(linkIDs, l)
	}
	sort.Slice(linkIDs, func(i, j int) bool { return linkIDs[i] < linkIDs[j] })
	maxOver := 0.0
	for _, l := range linkIDs {
		ll := loads[l]
		cp := net.Links[l].Capacity
		var total float64
		remaining := cp
		for ci := range iv.classes {
			load := ll.byClass[ci]
			total += load
			lost := load - remaining
			remaining -= load
			if remaining < 0 {
				remaining = 0
			}
			if lost > 1e-7*cp { // ignore LP-tolerance dust
				iv.addCongestion(ci, lost*dur)
			}
		}
		if over := (total - cp) / cp; over > maxOver && over > 1e-7 {
			maxOver = over
		}
	}
	return maxOver
}

func (iv *intervalState) addBlackhole(ci int, bytes float64) {
	p := iv.classes[ci]
	iv.res.ByPriority[p].BlackholeBytes += bytes
	iv.res.ByPriority[p].LossBytes += bytes
	iv.res.Total.BlackholeBytes += bytes
	iv.res.Total.LossBytes += bytes
}

func (iv *intervalState) addCongestion(ci int, bytes float64) {
	p := iv.classes[ci]
	iv.res.ByPriority[p].CongestionBytes += bytes
	iv.res.ByPriority[p].LossBytes += bytes
	iv.res.Total.CongestionBytes += bytes
	iv.res.Total.LossBytes += bytes
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Package ffc is a production-style implementation of Forward Fault
// Correction (FFC) traffic engineering, reproducing "Traffic Engineering
// with Forward Fault Correction" (SIGCOMM 2014).
//
// FFC proactively spreads traffic so that the network remains
// congestion-free under arbitrary combinations of up to kc control-plane
// faults (switches stuck on a stale configuration), ke link failures and kv
// switch failures — no detection or controller reaction needed. The
// combinatorially many fault cases are compressed into O(k·n) linear
// constraints with partial sorting networks and solved by the library's
// built-in pure-Go simplex.
//
// The top-level entry point is the Controller, a drop-in TE controller in
// the sense of the paper's §6:
//
//	net := ffc.Example4Topology()
//	s2, _ := net.SwitchByName("s2")
//	s4, _ := net.SwitchByName("s4")
//	ctl, err := ffc.NewController(net, []ffc.Flow{{Src: s2, Dst: s4}}, ffc.ControllerConfig{})
//	state, stats, err := ctl.Compute(ffc.Demands{{Src: s2, Dst: s4}: 14}, ffc.Protection{Ke: 1})
//	ctl.Install(state)
//
// Subpackages under internal/ implement the substrates: the LP solver
// (internal/lp), bounded M-sum encodings (internal/sortnet), topology and
// demand generators, tunnel layout, fault models, the evaluation simulator,
// and the per-figure experiment harness.
package ffc

import (
	"fmt"
	"io"
	"math/rand"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Re-exported core types: the public API is the ffc package; these aliases
// keep internal packages out of user code.
type (
	// Network is the TE graph of switches and directed capacitated links.
	Network = topology.Network
	// Switch is one forwarding element.
	Switch = topology.Switch
	// Link is one directed capacitated edge.
	Link = topology.Link
	// SwitchID indexes a switch.
	SwitchID = topology.SwitchID
	// LinkID indexes a directed link.
	LinkID = topology.LinkID
	// Flow is aggregated ingress→egress traffic.
	Flow = tunnel.Flow
	// Tunnel is one path carrying part of a flow.
	Tunnel = tunnel.Tunnel
	// TunnelSet holds every flow's tunnels.
	TunnelSet = tunnel.Set
	// Demands maps flows to their demanded bandwidth for one TE interval.
	Demands = demand.Matrix
	// State is a TE configuration: granted rates {bf} and per-tunnel
	// allocations {af,t}.
	State = core.State
	// Protection is the FFC protection level (kc, ke, kv).
	Protection = core.Protection
	// Stats reports LP size and solve time for one computation.
	Stats = core.Stats
	// SolverOptions tunes the encoding, rate-limiter fault model,
	// objective and the §6 mice optimization.
	SolverOptions = core.Options
	// Uncertain marks a flow whose installed configuration is unconfirmed
	// (§5.6).
	Uncertain = core.Uncertain
	// UpdatePlan is a chain of congestion-free intermediate states (§5.2).
	UpdatePlan = core.UpdatePlan
	// Violation reports a fault case that breaks a guarantee: the
	// overloaded link (LinkName), by how much (Over), and the faults that
	// cause it (Faults.LinkNames, SwitchNames, StaleNames).
	Violation = check.Violation
)

// Encoding constants (how bounded-M-sum constraints are emitted).
const (
	// EncodingCompact is the top-k dual encoding, the zero value of
	// SolverOptions.Encoding and the one every CLI and the daemon use.
	EncodingCompact = core.Compact
	// EncodingSortNet is the paper's partial bubble sorting network: the
	// same optimum from a larger LP, kept as the reference and for the
	// encoding ablation.
	EncodingSortNet = core.SortNet
	// EncodingNaive enumerates all fault cases (tiny networks only).
	EncodingNaive = core.Naive
)

// NoProtection is the zero protection level (plain TE).
var NoProtection = core.None

// NewTunnelSet returns an empty tunnel set over net for hand-laid tunnels;
// use Set.Add and pass the set to NewControllerWithTunnels.
func NewTunnelSet(net *Network) *TunnelSet { return tunnel.NewSet(net) }

// NewState returns an empty TE configuration (useful for hand-crafting a
// previously installed state).
func NewState() *State { return core.NewState() }

// Topology constructors.

// NewTopology returns an empty named network; add switches and duplex links
// and pass it to NewController.
func NewTopology(name string) *Network { return topology.NewNetwork(name) }

// LNetTopology generates the synthetic L-Net-like WAN of the evaluation.
func LNetTopology(sites int, seed int64) *Network {
	return topology.LNet(topology.LNetConfig{Sites: sites}, rand.New(rand.NewSource(seed)))
}

// SNetTopology returns the S-Net (B4 12-site) topology.
func SNetTopology() *Network { return topology.SNet() }

// TestbedTopology returns the 8-site testbed WAN of §7.
func TestbedTopology() *Network { return topology.Testbed() }

// Example4Topology returns the 4-switch walkthrough network of Figs 2–5.
func Example4Topology() *Network { return topology.Example4() }

// FatTreeTopology returns a k-ary fat-tree DCN fabric (k even); elephant
// flows run between its EdgeSwitches(), the paper's data-center TE setting.
func FatTreeTopology(k int, linkCapacity float64) *Network {
	return topology.FatTree(k, linkCapacity)
}

// ParseGraphMLTopology reads a GraphML topology (e.g. from the Internet
// Topology Zoo); defaultCapacity applies to edges without a LinkSpeedRaw
// attribute.
func ParseGraphMLTopology(r io.Reader, defaultCapacity float64) (*Network, error) {
	return topology.ParseGraphML(r, defaultCapacity)
}

// GenerateDemands produces a gravity-model demand series over net (one
// matrix per 5-minute TE interval).
func GenerateDemands(net *Network, intervals int, seed int64) []Demands {
	return demand.Generate(net, demand.Config{Intervals: intervals}, rand.New(rand.NewSource(seed)))
}

// ControllerConfig configures tunnel layout and the solver.
type ControllerConfig struct {
	// TunnelsPerFlow is |Tf| (default 6, the paper's setting).
	TunnelsPerFlow int
	// P and Q bound tunnel sharing per physical link / intermediate switch
	// (§4.3; default (1,3)).
	P, Q int
	// Solver tunes encoding, rate-limiter fault model, objective, and the
	// §6 mice optimization.
	Solver SolverOptions
}

// Controller is a drop-in FFC TE controller: it owns the tunnel layout over
// a fixed topology, remembers the installed configuration, and computes new
// configurations at requested protection levels.
type Controller struct {
	net     *Network
	tun     *TunnelSet
	solver  *core.Solver
	current *State
}

// NewController lays out (p,q) link-switch disjoint tunnels for the given
// flows and returns a controller. Flows with no usable path are rejected.
func NewController(net *Network, flows []Flow, cfg ControllerConfig) (*Controller, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	set := tunnel.Layout(net, flows, tunnel.LayoutConfig{
		TunnelsPerFlow: cfg.TunnelsPerFlow, P: cfg.P, Q: cfg.Q,
	})
	for _, f := range flows {
		if len(set.Tunnels(f)) == 0 {
			return nil, fmt.Errorf("ffc: flow %v has no path in %q", f, net.Name)
		}
	}
	return &Controller{
		net:     net,
		tun:     set,
		solver:  core.NewSolver(net, set, cfg.Solver),
		current: core.NewState(),
	}, nil
}

// NewControllerWithTunnels uses a caller-provided tunnel layout.
func NewControllerWithTunnels(net *Network, set *TunnelSet, opts SolverOptions) *Controller {
	return &Controller{net: net, tun: set, solver: core.NewSolver(net, set, opts), current: core.NewState()}
}

// Network returns the controller's topology.
func (c *Controller) Network() *Network { return c.net }

// Tunnels returns the tunnel layout.
func (c *Controller) Tunnels() *TunnelSet { return c.tun }

// Current returns the installed configuration (empty before any Install).
func (c *Controller) Current() *State { return c.current }

// Install records st as the network's installed configuration; subsequent
// control-plane FFC computations are relative to it.
func (c *Controller) Install(st *State) { c.current = st.Clone() }

// Compute returns a TE configuration for the demands at the given
// protection level, relative to the currently installed configuration.
func (c *Controller) Compute(d Demands, prot Protection) (*State, *Stats, error) {
	return c.solver.Solve(core.Input{Demands: d, Prot: prot, Prev: c.current})
}

// ComputeInput exposes the full input surface (capacity overrides,
// uncertain flows, down elements, rate caps/floors/pins).
func (c *Controller) ComputeInput(in core.Input) (*State, *Stats, error) {
	if in.Prev == nil {
		in.Prev = c.current
	}
	return c.solver.Solve(in)
}

// ComputeMaxMin computes an approximately max-min fair FFC configuration
// (§5.3) with growth factor alpha (e.g. 2, or smaller for tighter fairness).
func (c *Controller) ComputeMaxMin(d Demands, prot Protection, alpha float64) (*State, error) {
	res, err := c.solver.SolveMaxMin(core.Input{Demands: d, Prot: prot, Prev: c.current}, alpha, 0)
	if err != nil {
		return nil, err
	}
	return res.State, nil
}

// PlanUpdate computes a congestion-free multi-step update from the
// installed configuration to target, robust to kc cumulative configuration
// faults (§5.2).
func (c *Controller) PlanUpdate(target *State, kc, maxSteps int) (*UpdatePlan, error) {
	return c.solver.PlanUpdate(c.current, target, kc, maxSteps)
}

// VerifyDataPlane exhaustively checks st against every combination of up to
// ke link and kv switch failures and returns the worst overload; nil means
// the guarantee holds. Exponential in (ke, kv). A negative level or a state
// holding negative or non-finite values is an error.
func (c *Controller) VerifyDataPlane(st *State, ke, kv int) (*Violation, error) {
	return c.certify(st, st, Protection{Ke: ke, Kv: kv})
}

// VerifyControlPlane exhaustively checks st against every set of up to kc
// stale switches relative to the installed configuration, as
// VerifyDataPlane does against failures.
func (c *Controller) VerifyControlPlane(st *State, kc int) (*Violation, error) {
	return c.certify(st, c.current, Protection{Kc: kc})
}

// certify runs the exact certifier and returns its worst violation.
func (c *Controller) certify(st, prev *State, prot Protection) (*Violation, error) {
	cert, err := check.Certify(c.net, c.tun, st, prev, check.Params{
		Prot: prot, RateLimiter: c.solver.Opts.RateLimiter,
	})
	if err != nil {
		return nil, err
	}
	return cert.Violation, nil
}

// DemandUncertainty re-exports the §9 demand-misprediction protection for
// networks without rate control.
type DemandUncertainty = core.DemandUncertainty

// MLUResult reports a MinMLU computation.
type MLUResult struct {
	State *State
	// MLU is the planned maximum link utilization (may exceed 1 when the
	// offered demand does not fit).
	MLU float64
	// FaultMLU is the planned worst-case utilization across the protected
	// fault/misprediction cases (0 when no protection was requested).
	FaultMLU float64
}

// ComputeMinMLU runs the §5.4 objective for networks that cannot rate-
// control ingress traffic: carry the entire demand, minimizing the maximum
// link utilization, optionally with control-plane FFC (prot.Kc) and §9
// demand-misprediction protection.
func (c *Controller) ComputeMinMLU(d Demands, prot Protection, du DemandUncertainty) (*MLUResult, error) {
	opts := c.solver.Opts
	opts.Objective = core.MinMLU
	solver := core.NewSolver(c.net, c.tun, opts)
	st, stats, err := solver.Solve(core.Input{Demands: d, Prot: prot, Prev: c.current, Demand: du})
	if err != nil {
		return nil, err
	}
	return &MLUResult{State: st, MLU: stats.MLU, FaultMLU: stats.FaultMLU}, nil
}

// PlanCapacityFor solves the §3.3 provisioning problem: the per-link
// capacity additions (and their total) needed so the full demand is
// carried with the given protection level. cost weights expansion per link
// (nil = unit cost).
func (c *Controller) PlanCapacityFor(d Demands, prot Protection, cost func(LinkID) float64) (map[LinkID]float64, float64, error) {
	opts := c.solver.Opts
	opts.Objective = core.PlanCapacity
	opts.CapacityCost = cost
	planner := core.NewSolver(c.net, c.tun, opts)
	_, stats, err := planner.Solve(core.Input{Demands: d, Prot: prot, Prev: c.current})
	if err != nil {
		return nil, 0, err
	}
	var total float64
	for _, x := range stats.AddedCapacity {
		total += x
	}
	return stats.AddedCapacity, total, nil
}

// ShadowPrices computes each link's marginal throughput value at the given
// demands and protection level — which links are worth upgrading.
func (c *Controller) ShadowPrices(d Demands, prot Protection) (map[LinkID]float64, error) {
	_, stats, err := c.Compute(d, prot)
	if err != nil {
		return nil, err
	}
	return stats.LinkShadowPrice, nil
}

// FailureCase re-exports core's anticipated-fault-set type for
// PerCaseOptimal.
type FailureCase = core.FailureCase

// SingleLinkFailureCases enumerates one case per physical link.
func SingleLinkFailureCases(net *Network) []FailureCase { return core.SingleLinkCases(net) }

// PerCaseOptimal computes the Suchara-style comparison point (§9 related
// work): shared rates with an arbitrary precomputed optimal split per
// anticipated failure case. It upper-bounds what any proactive rescaling
// scheme (including FFC) can carry on the same cases, at the cost of
// needing per-case forwarding state in switches.
func (c *Controller) PerCaseOptimal(d Demands, cases []FailureCase) (*State, *Stats, error) {
	return c.solver.SolvePerCaseOptimal(core.Input{Demands: d, Prev: c.current}, cases)
}

// PriorityState is the result of a multi-priority cascade (§5.1), highest
// class first.
type PriorityState struct {
	Class  string
	Prot   Protection
	State  *State
	Demand float64
}

// ComputePriorities runs the §5.1 cascade: classes are computed highest
// first, each against the residual capacity left by the classes above it.
// protections must be ordered high→low and non-increasing.
func (c *Controller) ComputePriorities(classes []string, demands []Demands, protections []Protection) ([]PriorityState, error) {
	if len(classes) != len(demands) || len(classes) != len(protections) {
		return nil, fmt.Errorf("ffc: classes/demands/protections length mismatch")
	}
	for i := 1; i < len(protections); i++ {
		p, q := protections[i-1], protections[i]
		if q.Kc > p.Kc || q.Ke > p.Ke || q.Kv > p.Kv {
			return nil, fmt.Errorf("ffc: lower class %q has stronger protection than %q (§5.1 requires kh ≥ kl)", classes[i], classes[i-1])
		}
	}
	residual := map[LinkID]float64{}
	for _, l := range c.net.Links {
		residual[l.ID] = l.Capacity
	}
	var out []PriorityState
	for i := range classes {
		caps := make(map[LinkID]float64, len(residual))
		for k, v := range residual {
			caps[k] = v
		}
		st, _, err := c.solver.Solve(core.Input{
			Demands: demands[i], Prot: protections[i], Prev: c.current, Capacity: caps,
		})
		if err != nil {
			return nil, fmt.Errorf("ffc: class %q: %w", classes[i], err)
		}
		// §5.1: deduct the class's actual traffic (weights×rate), not its
		// allocation — protection headroom stays usable by lower classes,
		// which priority queueing sheds first under faults.
		for l, u := range st.ActualLinkLoads(c.tun) {
			residual[l] -= u
			if residual[l] < 0 {
				residual[l] = 0
			}
		}
		out = append(out, PriorityState{Class: classes[i], Prot: protections[i], State: st, Demand: demands[i].Total()})
	}
	return out, nil
}

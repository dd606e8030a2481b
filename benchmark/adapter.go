package main

// adapter.go is the only file of the benchmark that imports ffc/internal/...:
// one small function per layer call, returning plain numbers, so that an API
// change in the library (Session-only entry, one encoding, slice-indexed
// State) touches this file and nothing else. The workloads, the tracer and
// the report see the library only through the names declared here.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/ctrl"
	"ffc/internal/demand"
	"ffc/internal/sim"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

type (
	network   = topology.Network
	tunnelSet = tunnel.Set
	demands   = demand.Matrix
	plan      = core.State
	solver    = core.Solver
	session   = core.Session
	template  = core.ModelTemplate
	update    = wire.Update
	client    = ctrl.Client
)

// protection is the paper's (kc, ke, kv).
type protection struct{ Kc, Ke, Kv int }

func (p protection) String() string { return fmt.Sprintf("(%d,%d,%d)", p.Kc, p.Ke, p.Kv) }

func (p protection) core() core.Protection { return core.Protection{Kc: p.Kc, Ke: p.Ke, Kv: p.Kv} }

// The instances are fixed so that run times compare across seeds: L-Net is
// the 8-site generator draw EXPERIMENTS.md reports on (seed 1), and the
// gravity base (site masses, diurnal phases) is that environment's draw too.
// A benchmark seed draws only the per-interval, per-flow demand drift.
const (
	lnetTopologySeed = 1
	gravitySeed      = 8
	driftSigma       = 0.05
)

func genTopology(kind string) *network {
	switch kind {
	case "lnet":
		return topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(lnetTopologySeed)))
	case "snet":
		return topology.SNet()
	case "testbed":
		return topology.Testbed()
	}
	panic("benchmark: unknown topology " + kind)
}

// genDemands returns n gravity matrices at the 5-minute cadence: the fixed
// diurnal base times a 5 % lognormal drift drawn from seed.
func genDemands(net *network, n int, seed int64) []demands {
	// NoiseSigma 0 would select the generator's 15 % default.
	series := demand.Generate(net, demand.Config{Intervals: n, NoiseSigma: 1e-12}, rand.New(rand.NewSource(gravitySeed)))
	rng := rand.New(rand.NewSource(seed))
	for _, m := range series {
		for _, f := range m.Flows() {
			m[f] *= math.Exp(rng.NormFloat64() * driftSigma)
		}
	}
	return series
}

// layout lays out the (1,3) link-switch disjoint tunnels, 6 per flow.
func layout(net *network, series []demands) *tunnelSet {
	return tunnel.Layout(net, sim.FlowsOf(series), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
}

func tunnelCount(set *tunnelSet) int {
	n := 0
	for _, f := range set.All() {
		n += len(set.Tunnels(f))
	}
	return n
}

// newSolver builds the solver every library workload uses: Compact encoding
// and every §6 skip at zero, so that plans certify exactly. bubble selects
// the library-default partial bubble sorting network instead (diagnostic).
func newSolver(net *network, set *tunnelSet, bubble bool) *solver {
	enc := core.Compact
	if bubble {
		enc = core.SortNet
	}
	return core.NewSolver(net, set, core.Options{Encoding: enc})
}

func newSession(s *solver) *session { return s.NewSession() }

// calibrate scales series to the paper's traffic scale 1: plain TE satisfies
// 99 % of the offered demand.
func calibrate(s *solver, series []demands) ([]demands, error) {
	scale, err := sim.CalibrateScale(s, series, 0.99, 3)
	if err != nil {
		return nil, err
	}
	return sim.ScaleSeries(series, scale), nil
}

// solveInfo is what one Session.Solve reports, as plain numbers.
type solveInfo struct {
	Rows, Vars, EncRows, EncVars                                   int
	Iters, Phase1, Reinversions, BasisNnz, BoundFlips, WarmRepairs int
	Warm, Reused                                                   bool
	// Status is the LP status of a solve that returned no plan.
	Status string
}

func input(dem demands, prot protection, prev *plan) core.Input {
	return core.Input{Demands: dem, Prot: prot.core(), Prev: prev}
}

func solve(se *session, dem demands, prot protection, prev *plan) (*plan, solveInfo, error) {
	st, stats, err := se.Solve(input(dem, prot, prev))
	var info solveInfo
	if stats != nil {
		info = solveInfo{
			Rows: stats.Constraints, Vars: stats.Vars,
			EncRows: stats.EncodingConstraints, EncVars: stats.EncodingVars,
			Iters: stats.Iters, Phase1: stats.LP.Phase1Iters,
			Reinversions: stats.LP.Reinversions, BasisNnz: stats.LP.BasisNnz,
			BoundFlips: stats.LP.BoundFlips, WarmRepairs: stats.LP.WarmRepairs,
			Warm:   stats.LP.Warm && !stats.LP.WarmFellBack,
			Reused: stats.ModelReused,
			Status: stats.Status.String(),
		}
	}
	if err != nil {
		return nil, info, err
	}
	return st, info, nil
}

// plainTE solves dem without protection, cold.
func plainTE(s *solver, dem demands) (*plan, error) {
	st, _, err := s.Solve(core.Input{Demands: dem})
	return st, err
}

// buildCold formulates the LP from scratch without solving it and returns
// the template, or nil when the formulation fails.
func buildCold(s *solver, dem demands, prot protection, prev *plan) *template {
	t, err := s.NewTemplate(input(dem, prot, prev))
	if err != nil {
		return nil
	}
	return t
}

// buildWarm rebinds a template to new values; false when the input's
// structure does not match (kc > 0 always mismatches).
func buildWarm(t *template, dem demands, prot protection, prev *plan) bool {
	return t.Instantiate(input(dem, prot, prev)) == nil
}

// verifyDataPlane is the solver-side exhaustive verifier.
func verifyDataPlane(net *network, set *tunnelSet, st *plan, prot protection) bool {
	return core.VerifyDataPlane(net, set, st, prot.Ke, prot.Kv, nil) == nil
}

type certInfo struct {
	OK, Exact        bool
	Checked, Covered int64
}

// certify runs the independent certifier in Auto mode, or in its bounded
// adversarial mode.
func certify(net *network, set *tunnelSet, st, prev *plan, prot protection, adversarial bool) (certInfo, error) {
	p := check.Params{Prot: prot.core()}
	if adversarial {
		p.Mode = check.Adversarial
	}
	c, err := check.Certify(net, set, st, prev, p)
	if err != nil {
		return certInfo{}, err
	}
	return certInfo{OK: c.OK, Exact: c.Exact, Checked: c.CasesChecked, Covered: c.CasesCovered}, nil
}

// encodePlan is what ctrl's install does: EncodeState, then json.Marshal.
func encodePlan(net *network, set *tunnelSet, dem demands, st *plan) ([]byte, error) {
	return json.Marshal(wire.EncodeState(net, set, dem, st))
}

func parsePlan(net *network, set *tunnelSet, blob []byte) (*plan, error) {
	return wire.ParseState(net, set, blob)
}

func totalRate(st *plan) float64 { return st.TotalRate() }

func totalDemand(dem demands) float64 { return dem.Total() }

// sameRates reports whether b grants every flow of a the same rate.
func sameRates(a, b *plan) bool {
	if len(a.Rate) != len(b.Rate) {
		return false
	}
	for f, r := range a.Rate {
		if br, ok := b.Rate[f]; !ok || br != r {
			return false
		}
	}
	return true
}

// --- the ffcd protocol -------------------------------------------------

func encodeTopology(net *network) ([]byte, error) { return json.Marshal(net) }

func encodeDemands(net *network, dem demands) ([]byte, error) {
	return json.Marshal(wire.EncodeDemands(net, dem))
}

// demandUpdate replaces the daemon's whole demand matrix.
func demandUpdate(net *network, dem demands) *update {
	return &update{Op: wire.UpdateDemands, Reset: true, Demands: wire.EncodeDemands(net, dem).Demands}
}

func linkUpdate(src, dst string, up bool) *update {
	return &update{Op: wire.UpdateLink, Src: src, Dst: dst, Up: &up}
}

func encodeUpdate(u *update) ([]byte, error) { return wire.EncodeUpdate(u) }

// interSiteLinks names one direction of every physical link between sites,
// in link order.
func interSiteLinks(net *network) [][2]string {
	var out [][2]string
	for _, l := range net.Links {
		a, b := net.Switches[l.Src], net.Switches[l.Dst]
		if l.Src < l.Dst && a.Site != b.Site {
			out = append(out, [2]string{a.Name, b.Name})
		}
	}
	return out
}

func dial(addr string) (*client, error) { return ctrl.Dial(addr, 5*time.Second) }

// sendUpdate streams one update frame and waits for its acknowledgement.
func sendUpdate(c *client, u *update) error { return c.Update(u) }

// daemonStats is the part of ffcd's stats reply the benchmark reads.
type daemonStats struct {
	Seq, CertRuns, CertFailures, CertSkipped int64
	Degraded, Relayouts                      int64
	// SolveSumMs is the time the daemon spent in its Solves solves.
	Solves                 int64
	SolveSumMs, SolveMaxMs float64
}

func queryStats(c *client) (daemonStats, error) {
	s, err := c.Stats()
	if err != nil {
		return daemonStats{}, err
	}
	return daemonStats{
		Seq: s.PlanSeq, CertRuns: s.CertRuns, CertFailures: s.CertFailures, CertSkipped: s.CertSkipped,
		Degraded: s.DegradedInstalls, Relayouts: s.Relayouts,
		Solves: s.SolveCount, SolveSumMs: float64(s.SolveMeanNs*s.SolveCount) / 1e6, SolveMaxMs: float64(s.SolveMaxNs) / 1e6,
	}, nil
}

// servedPlan is one get_plan reply, checked the way ffcload checks it.
type servedPlan struct {
	Seq                    int64
	TotalRate, TotalDemand float64
	Prot                   protection
	Degraded               string
	Bytes                  int
}

// queryPlan fetches the installed plan and fails on a torn read: a payload
// that does not parse, a flow count that disagrees with the metadata, or
// flow rates that do not sum to total_rate.
func queryPlan(c *client) (servedPlan, error) {
	resp, err := c.Query(ctrl.QueryPlan)
	if err != nil {
		return servedPlan{}, err
	}
	if resp.Meta == nil {
		return servedPlan{}, fmt.Errorf("reply without meta")
	}
	var sf wire.StateFile
	if err := json.Unmarshal(resp.Plan, &sf); err != nil {
		return servedPlan{}, fmt.Errorf("bad plan payload: %w", err)
	}
	if len(sf.Flows) != resp.Meta.Flows {
		return servedPlan{}, fmt.Errorf("torn plan: meta says %d flows, payload has %d", resp.Meta.Flows, len(sf.Flows))
	}
	var sum float64
	for _, fl := range sf.Flows {
		sum += fl.Rate
	}
	if math.Abs(sum-sf.TotalRate) > 1e-6+1e-9*sum {
		return servedPlan{}, fmt.Errorf("torn plan: flow rates sum to %g, total says %g", sum, sf.TotalRate)
	}
	return servedPlan{
		Seq: resp.Meta.Seq, TotalRate: sf.TotalRate, TotalDemand: sf.TotalDemand,
		Prot:     protection{resp.Meta.Kc, resp.Meta.Ke, resp.Meta.Kv},
		Degraded: resp.Meta.Degraded, Bytes: len(resp.Plan),
	}, nil
}

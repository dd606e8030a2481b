package ctrl

import (
	"encoding/json"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/wire"
)

// Plan is one installed TE configuration, immutable after install. The
// controller publishes it behind an atomic pointer; readers share it
// freely and must not mutate State, File, or Encoded.
type Plan struct {
	// Seq increments with every install (restored snapshots resume their
	// persisted sequence).
	Seq int64
	// InstalledAt stamps the install.
	InstalledAt time.Time
	// Degraded carries the degradation reason ("", or timeout/crash/stale/
	// deadline/infeasible/solver-error/uncertified/unsolved — the reasons
	// of core.Session.Step, shared with the sim, plus "unsolved" for the
	// pre-first-solve empty plan).
	Degraded string
	// Restored marks a plan loaded from a boot snapshot rather than solved
	// by this process.
	Restored bool
	// Outcome is the solver outcome that produced the plan.
	Outcome core.Outcome
	// Prot is the protection the plan achieves: the requested level, or
	// core.None for a degraded plan and after the unprotected retry of an
	// infeasible protected solve.
	Prot core.Protection
	// SolveTime is the wall clock of the producing solve (zero for
	// restored/unsolved plans).
	SolveTime time.Duration
	// Cert is the certificate this process's checker issued before install;
	// nil only for the unsolved placeholder, which is never traced.
	Cert *check.Certificate
	// downLinks / downSwitches are the down sets the plan was certified
	// over: its trace record names them, and the next certification draws
	// its probe from Cert when they still hold.
	downLinks    map[topology.LinkID]bool
	downSwitches map[topology.SwitchID]bool

	// State is the raw configuration (granted rates, tunnel allocations).
	State *core.State
	// File is the wire form of State against the controller's topology and
	// tunnel set at install time.
	File wire.StateFile
	// Encoded is File as compact JSON, written once at install by
	// wire.AppendState (byte for byte json.Marshal's encoding): the serve
	// path answers get_plan with one buffer copy and zero encoding work.
	Encoded json.RawMessage
}

// Meta is the query-visible header of a plan (everything but the flows).
type Meta struct {
	Seq         int64         `json:"seq"`
	InstalledAt time.Time     `json:"installed_at"`
	Degraded    string        `json:"degraded,omitempty"`
	Restored    bool          `json:"restored,omitempty"`
	Outcome     string        `json:"outcome"`
	Kc          int           `json:"kc"`
	Ke          int           `json:"ke"`
	Kv          int           `json:"kv"`
	SolveTime   time.Duration `json:"solve_time_ns"`
	Certified   bool          `json:"certified"`
	WorstSlack  *float64      `json:"worst_slack,omitempty"`
	Flows       int           `json:"flows"`
	TotalRate   float64       `json:"total_rate"`
	TotalDemand float64       `json:"total_demand"`
}

// Meta summarizes the plan.
func (p *Plan) Meta() Meta {
	m := Meta{
		Seq:         p.Seq,
		InstalledAt: p.InstalledAt,
		Degraded:    p.Degraded,
		Restored:    p.Restored,
		Outcome:     p.Outcome.String(),
		Kc:          p.Prot.Kc,
		Ke:          p.Prot.Ke,
		Kv:          p.Prot.Kv,
		SolveTime:   p.SolveTime,
		Certified:   p.Cert != nil,
		Flows:       len(p.File.Flows),
		TotalRate:   p.File.TotalRate,
		TotalDemand: p.File.TotalDemand,
	}
	if p.Cert != nil {
		slack := p.Cert.WorstSlack // a copy: Meta must not alias the plan
		m.WorstSlack = &slack
	}
	return m
}

// Routes returns the installed flow entries (rates, tunnel paths, splitting
// weights) — the part a switch agent would program.
func (p *Plan) Routes() []wire.StateFlow { return p.File.Flows }

// install publishes p, whose State is a plan for dem, as the serving plan:
// stamp and encode it once (into a buffer sized from the previous plan's
// encoding, so the append rarely grows it), then swap the atomic pointer.
// The previous plan stays valid for readers that already hold it. Every
// plan but the unsolved placeholder arrives with the certificate it passed.
func (c *Controller) install(p *Plan, dem demand.Matrix) {
	start := time.Now()
	p.InstalledAt = start
	p.File = wire.EncodeState(c.net, c.set, dem, p.State)
	var buf []byte
	if last := c.plan.Load(); last != nil {
		buf = make([]byte, 0, len(last.Encoded)+len(last.Encoded)/8)
	}
	blob, err := wire.AppendState(buf, &p.File)
	if err != nil {
		// Unreachable for the types involved; keep serving the old plan.
		c.cfg.Logf("ctrl: encoding plan seq=%d: %v", p.Seq, err)
		return
	}
	p.Encoded = blob
	c.plan.Store(p)
	c.stats.plansInstalled.Add(1)
	obsPlansInstalled.Inc()
	if p.Degraded != "" && p.Degraded != "unsolved" {
		// The pre-first-solve placeholder is marked "unsolved" so clients
		// can tell, but it is a bootstrap artifact, not a degraded install.
		c.stats.degradedInstalls.Add(1)
		obsDegradedInstalls.Inc()
	}
	if obs.Enabled() {
		obsInstallLatency.ObserveSince(start)
	}
	if p.Cert != nil {
		c.writeTrace(p)
	}
}

// installUnsolved serves the empty placeholder: a query must never observe
// "no plan", only "the plan grants nothing yet".
func (c *Controller) installUnsolved() {
	c.install(&Plan{Degraded: "unsolved", Outcome: core.OutcomeSolverError, Prot: c.prot, State: core.NewState()}, c.demands.Clone())
}

// record renders p as a trace record at protection prot over the down sets
// dl and ds. A trace line records the plan's own protection and down sets;
// a snapshot records the desired ones the control loop resumes from.
func (c *Controller) record(p *Plan, prot core.Protection, dl map[topology.LinkID]bool, ds map[topology.SwitchID]bool) wire.TraceRecord {
	links, sws := wire.NamedDownSets(c.net, dl, ds)
	return wire.TraceRecord{
		Seq:          p.Seq,
		Time:         p.InstalledAt,
		Kc:           prot.Kc,
		Ke:           prot.Ke,
		Kv:           prot.Kv,
		Degraded:     p.Degraded,
		Restored:     p.Restored,
		DownLinks:    links,
		DownSwitches: sws,
		State:        p.File,
	}
}

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
	// nil only for the unsolved placeholder.
	Cert *check.Certificate

	// State is the raw configuration (granted rates, tunnel allocations).
	State *core.State
	// File is the wire form of State against the controller's topology and
	// tunnel set at install time.
	File wire.StateFile
	// Encoded is File pre-marshalled: the serve path answers get_plan with
	// one buffer copy and zero encoding work.
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

type installMeta struct {
	seq       int64
	degraded  string
	restored  bool
	outcome   core.Outcome
	solveTime time.Duration
	cert      *check.Certificate

	// prev is the previously installed state (the stale configuration for
	// control-plane certification); nil skips tracing (the pre-first-solve
	// placeholder).
	prev         *core.State
	downLinks    map[topology.LinkID]bool
	downSwitches map[topology.SwitchID]bool
}

// install publishes st as the serving plan: encode once, then swap the
// atomic pointer. The previous plan stays valid for readers that already
// hold it. Every plan but the unsolved placeholder arrives with the
// certificate it passed.
func (c *Controller) install(st *core.State, dem demand.Matrix, prot core.Protection, m installMeta) {
	start := time.Now()
	file := wire.EncodeState(c.net, c.set, dem, st)
	blob, err := json.Marshal(file)
	if err != nil {
		// Unreachable for the types involved; keep serving the old plan.
		c.cfg.Logf("ctrl: encoding plan seq=%d: %v", m.seq, err)
		return
	}
	p := &Plan{
		Seq:         m.seq,
		InstalledAt: start,
		Degraded:    m.degraded,
		Restored:    m.restored,
		Outcome:     m.outcome,
		Prot:        prot,
		SolveTime:   m.solveTime,
		Cert:        m.cert,
		State:       st,
		File:        file,
		Encoded:     blob,
	}
	c.plan.Store(p)
	c.stats.plansInstalled.Add(1)
	obsPlansInstalled.Inc()
	if m.degraded != "" && m.degraded != "unsolved" {
		// The pre-first-solve placeholder is marked "unsolved" so clients
		// can tell, but it is a bootstrap artifact, not a degraded install.
		c.stats.degradedInstalls.Add(1)
		obsDegradedInstalls.Inc()
	}
	if obs.Enabled() {
		obsInstallLatency.ObserveSince(start)
	}
	if m.prev != nil {
		c.writeTrace(p, m.downLinks, m.downSwitches)
	}
}

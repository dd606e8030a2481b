// Package ctrl is the long-running FFC TE controller service: it owns a
// core.Session (LP model template + warm simplex basis carried across
// intervals), ingests streamed topology/demand updates, recomputes the TE
// plan on a ticker and on update arrival, and serves the installed plan
// from an immutable snapshot behind an atomic pointer so queries never
// block on a solve. Each recompute runs core.Session.Step — the control
// step the simulator's interval loop runs too — so solver trouble (budget
// hits, crashes, injected faults, infeasibility that survives the
// unprotected retry, a plan that fails certification) falls back through
// core.Degrade with the same reasons in both; here the reason is exposed in
// the plan metadata and counted in internal/obs, and a degraded plan
// reports zero protection. Every served plan — solved, degraded or
// restored — is certified by internal/check first. A periodic snapshot of
// the installed state (a wire.TraceRecord plus demands, the record an
// install's trace line carries) lets a restarted daemon serve its first
// query before its first solve completes. Names in updates and snapshots
// resolve through wire's resolvers; ctrl itself never looks a name up.
//
// cmd/ffcd wraps a Controller + Server into the daemon binary; cmd/ffcload
// is the matching load generator.
package ctrl

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

var (
	obsPlansInstalled   = obs.NewCounter("ctrl.plans_installed")
	obsDegradedInstalls = obs.NewCounter("ctrl.degraded_installs")
	obsUpdatesApplied   = obs.NewCounter("ctrl.updates_applied")
	obsRelayouts        = obs.NewCounter("ctrl.relayouts")
	obsSnapshotWrites   = obs.NewCounter("ctrl.snapshot_writes")
	obsQueueDepth       = obs.NewGauge("ctrl.update_queue_depth")
	obsInstallLatency   = obs.NewHistogram("ctrl.install_latency")
	obsServeLatency     = obs.NewHistogram("ctrl.serve_latency")
)

// Config parameterizes a Controller.
type Config struct {
	// Net is the topology served (required).
	Net *topology.Network
	// Demands is the initial demand matrix; a restored snapshot's demands
	// take precedence at boot.
	Demands demand.Matrix
	// Prot is the initial protection level (updatable over the wire).
	Prot core.Protection
	// Layout parameterizes tunnel layout for the demand flows.
	Layout tunnel.LayoutConfig
	// Opts tunes the solver: §6 mice (ffcd sets MiceFraction) and the
	// rate-limiter mode, which certification also reads. Encoding stays
	// Compact unless set.
	Opts core.Options
	// Interval is the recompute ticker period; updates additionally kick an
	// immediate recompute. Default 5s.
	Interval time.Duration
	// SolveDeadline bounds each recompute's wall clock; a miss degrades to
	// the last-good plan. Zero means no deadline.
	SolveDeadline time.Duration
	// SnapshotPath, when set, enables crash recovery: the installed state is
	// persisted there (atomic rename) and restored at boot.
	SnapshotPath string
	// SnapshotEvery rate-limits periodic snapshot writes. Default 10s; the
	// final snapshot on Stop always happens.
	SnapshotEvery time.Duration
	// Faults injects controller failures per recompute (testing and soak;
	// the zero value injects nothing).
	Faults faults.SolverFaultModel
	// FaultSeed seeds the injection RNG. Default 1.
	FaultSeed int64
	// FirstSolveDelay holds the recompute loop idle after Start — the
	// restored snapshot (or empty plan) serves meanwhile. Exists so tests
	// and the CI soak can deterministically observe a restart answering
	// queries before its first solve completes.
	FirstSolveDelay time.Duration
	// Logf, when non-nil, receives operational log lines (install
	// transitions, restore, snapshot errors).
	Logf func(format string, args ...interface{})
	// TraceWriter, when non-nil, receives one wire.TraceRecord NDJSON
	// line per install — an offline-replayable plan history for
	// cmd/ffccheck.
	TraceWriter io.Writer
}

// statsCell is the controller's own atomic accounting, live regardless of
// obs.Enabled so the stats query and BENCH output always have data.
type statsCell struct {
	plansInstalled   atomic.Int64
	degradedInstalls atomic.Int64
	updatesApplied   atomic.Int64
	queriesServed    atomic.Int64
	relayouts        atomic.Int64
	snapshotWrites   atomic.Int64
	solveCount       atomic.Int64
	solveSumNs       atomic.Int64
	solveMaxNs       atomic.Int64
	certRuns         atomic.Int64
	certFailures     atomic.Int64
	certSumNs        atomic.Int64
	certCasesLast    atomic.Int64
}

// StatsSnapshot is the stats query's payload.
type StatsSnapshot struct {
	PlanSeq          int64 `json:"plan_seq"`
	PlansInstalled   int64 `json:"plans_installed"`
	DegradedInstalls int64 `json:"degraded_installs"`
	RestoredAtBoot   bool  `json:"restored_at_boot"`
	UpdatesApplied   int64 `json:"updates_applied"`
	QueriesServed    int64 `json:"queries_served"`
	Relayouts        int64 `json:"relayouts"`
	SnapshotWrites   int64 `json:"snapshot_writes"`
	PendingUpdates   int64 `json:"pending_updates"`
	SolveCount       int64 `json:"solve_count"`
	SolveMeanNs      int64 `json:"solve_mean_ns"`
	SolveMaxNs       int64 `json:"solve_max_ns"`
	CertRuns         int64 `json:"cert_runs"`
	CertFailures     int64 `json:"cert_failures"`
	// CertSkipped always reads 0: certification runs on the install path
	// and skips nothing. The field stays only because benchmark/adapter.go
	// names it; a benchmark-archetype change removes it together with the
	// benchmark's ctrl.cert_skipped.
	CertSkipped int64 `json:"cert_skipped"`
	// CertMsMean is the mean run time of the CertRuns certifications and
	// CertCasesLast the latest one's CasesChecked.
	CertMsMean    float64 `json:"cert_ms_mean"`
	CertCasesLast int64   `json:"cert_cases_last"`
}

// Controller is the TE control loop plus its serving surface. Queries
// (GetPlan, Routes, Stats) are safe from any goroutine and never block on
// a solve; updates (Apply) are safe from any goroutine and coalesce into
// the next recompute. Start/Stop manage the recompute loop.
type Controller struct {
	cfg Config
	net *topology.Network

	// plan is the serving path: an immutable snapshot behind an atomic
	// pointer, replaced wholesale at install.
	plan atomic.Pointer[Plan]

	// mu guards the desired state the recompute loop snapshots: demands,
	// down sets, protection, and the pending-update count.
	mu           sync.Mutex
	demands      demand.Matrix
	downLinks    map[topology.LinkID]bool
	downSwitches map[topology.SwitchID]bool
	prot         core.Protection
	pending      int64

	kick chan struct{}

	// Solver state, owned by the recompute loop (rebuilt on re-layout).
	set     *tunnel.Set
	session *core.Session

	rng          *rand.Rand
	intervalN    int
	lastSnapshot time.Time

	stats    statsCell
	restored bool
	// certCapacity, when non-nil, replaces the link capacities the
	// certifier checks against (tests shrink links below what the solver
	// may use, to force certification failures).
	certCapacity map[topology.LinkID]float64

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// New builds a controller: it restores the snapshot if one exists (the
// restored plan serves immediately), lays out tunnels for the working
// demand set, and prepares — but does not start — the recompute loop.
func New(cfg Config) (*Controller, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("ctrl: nil network")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, fmt.Errorf("ctrl: %w", err)
	}
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 10 * time.Second
	}
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = 1
	}
	if cfg.Layout.TunnelsPerFlow == 0 {
		cfg.Layout.TunnelsPerFlow = 6
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	c := &Controller{
		cfg:          cfg,
		net:          cfg.Net,
		demands:      cfg.Demands.Clone(),
		downLinks:    map[topology.LinkID]bool{},
		downSwitches: map[topology.SwitchID]bool{},
		prot:         cfg.Prot,
		kick:         make(chan struct{}, 1),
		rng:          rand.New(rand.NewSource(cfg.FaultSeed)),
		done:         make(chan struct{}),
	}
	if c.demands == nil {
		c.demands = demand.Matrix{}
	}
	var snap *snapshotFile
	if cfg.SnapshotPath != "" {
		s, err := loadSnapshot(cfg.SnapshotPath)
		if err != nil {
			c.cfg.Logf("ctrl: no snapshot restored: %v", err)
		} else {
			if err := c.adoptSnapshot(s); err != nil {
				return nil, fmt.Errorf("ctrl: restoring snapshot %s: %w", cfg.SnapshotPath, err)
			}
			snap = s
			c.restored = true
		}
	}
	c.relayout(c.demands)
	if snap == nil {
		c.installUnsolved()
		return c, nil
	}
	st, err := wire.ResolveState(c.net, c.set, &snap.State)
	if err != nil {
		return nil, fmt.Errorf("ctrl: restoring snapshot state: %w", err)
	}
	// A snapshot is the one plan this process never solved itself, so a
	// corrupted or semantically-stale file must not be served as
	// restored=true. prev = st: a restart installs exactly what was
	// running, so no ingress is stale relative to it.
	prot := snap.CertifiedProt()
	cert := c.certify(snap.Seq, st, st, prot, c.downLinks, c.downSwitches)
	if cert == nil {
		c.restored = false
		c.cfg.Logf("ctrl: snapshot plan seq=%d from %s failed certification; serving empty plan instead",
			snap.Seq, cfg.SnapshotPath)
		c.installUnsolved()
		return c, nil
	}
	c.install(&Plan{
		Seq: snap.Seq, Degraded: snap.Degraded, Restored: true, Outcome: core.OutcomeOptimal,
		Prot: prot, Cert: cert, State: st,
		downLinks: cloneSet(c.downLinks), downSwitches: cloneSet(c.downSwitches),
	}, c.demands.Clone())
	c.cfg.Logf("ctrl: restored plan seq=%d from %s (%d flows); serving while the first solve runs",
		snap.Seq, cfg.SnapshotPath, len(snap.State.Flows))
	return c, nil
}

// Start launches the recompute loop.
func (c *Controller) Start() {
	c.ctx, c.cancel = context.WithCancel(context.Background())
	go c.run()
}

// Stop drains the controller: the in-flight solve is cancelled through the
// budget path, the loop exits, and a final snapshot is written.
func (c *Controller) Stop() {
	if c.cancel == nil {
		return
	}
	c.cancel()
	<-c.done
	c.writeSnapshot(true)
}

// Kick requests an immediate recompute (coalesced if one is pending).
func (c *Controller) Kick() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// GetPlan returns the installed plan snapshot. Never nil after New; never
// blocks on a solve.
func (c *Controller) GetPlan() *Plan {
	start := time.Now()
	p := c.plan.Load()
	c.stats.queriesServed.Add(1)
	if obs.Enabled() {
		obsServeLatency.ObserveSince(start)
	}
	return p
}

// Stats snapshots the controller's accounting.
func (c *Controller) Stats() StatsSnapshot {
	c.mu.Lock()
	pending := c.pending
	c.mu.Unlock()
	s := StatsSnapshot{
		PlansInstalled:   c.stats.plansInstalled.Load(),
		DegradedInstalls: c.stats.degradedInstalls.Load(),
		RestoredAtBoot:   c.restored,
		UpdatesApplied:   c.stats.updatesApplied.Load(),
		QueriesServed:    c.stats.queriesServed.Load(),
		Relayouts:        c.stats.relayouts.Load(),
		SnapshotWrites:   c.stats.snapshotWrites.Load(),
		PendingUpdates:   pending,
		SolveCount:       c.stats.solveCount.Load(),
		SolveMaxNs:       c.stats.solveMaxNs.Load(),
		CertRuns:         c.stats.certRuns.Load(),
		CertFailures:     c.stats.certFailures.Load(),
		CertCasesLast:    c.stats.certCasesLast.Load(),
	}
	if p := c.plan.Load(); p != nil {
		s.PlanSeq = p.Seq
	}
	if n := s.SolveCount; n > 0 {
		s.SolveMeanNs = c.stats.solveSumNs.Load() / n
	}
	if n := s.CertRuns; n > 0 {
		s.CertMsMean = float64(c.stats.certSumNs.Load()) / float64(n) / 1e6
	}
	return s
}

// Apply resolves one wire update against the topology and folds it into the
// desired state; the recompute loop is kicked. Unknown names error and
// change nothing: a rejected update kicks no recompute.
func (c *Controller) Apply(u *wire.Update) (err error) {
	if err := u.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer func() {
		pending := c.pending
		c.mu.Unlock()
		if err != nil {
			return
		}
		obsQueueDepth.Set(pending)
		c.Kick()
	}()
	switch u.Op {
	case wire.UpdateDemands:
		// Resolve every entry before touching the matrix: an update is
		// applied atomically or not at all. The last entry for a flow wins.
		flows := make([]tunnel.Flow, len(u.Demands))
		for i, d := range u.Demands {
			if flows[i], err = wire.ResolveFlow(c.net, d.Src, d.Dst); err != nil {
				return fmt.Errorf("ctrl: demands update entry %d: %w", i, err)
			}
		}
		if u.Reset {
			c.demands = demand.Matrix{}
		}
		for i, f := range flows {
			c.demands[f] = u.Demands[i].Demand
		}
	case wire.UpdateLink:
		if err := wire.MarkLink(c.net, c.downLinks, u.Src, u.Dst, !*u.Up); err != nil {
			return fmt.Errorf("ctrl: link update: %w", err)
		}
	case wire.UpdateSwitch:
		sw, err := wire.ResolveSwitch(c.net, u.Switch)
		if err != nil {
			return fmt.Errorf("ctrl: switch update: %w", err)
		}
		if *u.Up {
			delete(c.downSwitches, sw)
		} else {
			c.downSwitches[sw] = true
		}
	case wire.UpdateProtection:
		if u.Kc != nil {
			c.prot.Kc = *u.Kc
		}
		if u.Ke != nil {
			c.prot.Ke = *u.Ke
		}
		if u.Kv != nil {
			c.prot.Kv = *u.Kv
		}
	}
	c.pending++
	c.stats.updatesApplied.Add(1)
	obsUpdatesApplied.Inc()
	return nil
}

// run is the recompute loop: a ticker paces steady-state recomputes, the
// kick channel folds in streamed updates promptly, and context cancellation
// drains the loop (cancelling the in-flight solve via the budget path).
func (c *Controller) run() {
	defer close(c.done)
	if c.cfg.FirstSolveDelay > 0 {
		select {
		case <-time.After(c.cfg.FirstSolveDelay):
		case <-c.ctx.Done():
			return
		}
	}
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	c.recompute()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
		case <-c.kick:
		}
		if c.ctx.Err() != nil {
			return
		}
		c.recompute()
	}
}

// relayout (re)builds the tunnel set and solve session for the flows of
// dem. The session starts cold — a changed flow set changes the model shape.
func (c *Controller) relayout(dem demand.Matrix) {
	flows := dem.Flows()
	c.set = tunnel.Layout(c.net, flows, c.cfg.Layout)
	c.session = core.NewSolver(c.net, c.set, c.cfg.Opts).NewSession()
	c.stats.relayouts.Add(1)
	obsRelayouts.Inc()
}

// covered reports whether every flow of dem has tunnels laid out.
func (c *Controller) covered(dem demand.Matrix) bool {
	for _, f := range dem.Flows() {
		if len(c.set.Tunnels(f)) == 0 {
			return false
		}
	}
	return true
}

// recompute runs one control interval: snapshot the desired state, run
// the shared control step (core.Session.Step: warm, templated solve →
// unprotected retry → certify → degrade), and install its plan.
func (c *Controller) recompute() {
	c.mu.Lock()
	dem := c.demands.Clone()
	prot := c.prot
	dl := cloneSet(c.downLinks)
	ds := cloneSet(c.downSwitches)
	c.pending = 0
	c.mu.Unlock()
	obsQueueDepth.Set(0)

	if !c.covered(dem) {
		c.relayout(dem)
	}

	last := c.plan.Load()
	prev := core.NewState()
	if last != nil && last.State != nil {
		prev = last.State
	}
	seq := int64(1)
	if last != nil {
		seq = last.Seq + 1
	}

	in := core.Input{
		Demands:      dem,
		Prot:         prot,
		Prev:         prev,
		DownLinks:    dl,
		DownSwitches: ds,
	}
	in.Budget.Ctx = c.ctx
	in.Budget.Deadline = c.cfg.SolveDeadline

	var fault *faults.SolverFaultKind
	if k, ok := c.cfg.Faults.Sample(c.intervalN, c.rng); ok {
		fault = &k
	}
	c.intervalN++

	// The step's last certification is the returned plan's. solveTime
	// leaves certification out: ctrl.cert_time and the cert_* stats
	// measure it.
	var cert *check.Certificate
	var certTime time.Duration
	certify := func(st *core.State, level core.Protection) bool {
		start := time.Now()
		cert = c.certify(seq, st, prev, level, dl, ds)
		certTime += time.Since(start)
		return cert != nil
	}
	start := time.Now()
	st, achieved, reason, stats := c.session.Step(in, fault, certify)
	solveTime := time.Since(start) - certTime
	c.stats.solveCount.Add(1)
	c.stats.solveSumNs.Add(solveTime.Nanoseconds())
	for {
		max := c.stats.solveMaxNs.Load()
		if ns := solveTime.Nanoseconds(); ns <= max || c.stats.solveMaxNs.CompareAndSwap(max, ns) {
			break
		}
	}
	if reason == "cancelled" {
		// Shutting down: the cancelled solve must not install anything.
		return
	}
	if st == nil {
		c.cfg.Logf("ctrl: DEGRADED plan seq=%d reason=%s failed certification; keeping plan seq=%d", seq, reason, seq-1)
		return
	}
	c.install(&Plan{
		Seq: seq, Degraded: reason, Outcome: stats.Outcome, Prot: achieved, SolveTime: solveTime,
		Cert: cert, State: st, downLinks: dl, downSwitches: ds,
	}, dem)
	if reason != "" {
		c.cfg.Logf("ctrl: installed DEGRADED plan seq=%d reason=%s (outcome %v, %v)", seq, reason, stats.Outcome, solveTime.Round(time.Microsecond))
	}
	c.writeSnapshot(false)
}

// cloneSet copies the true entries of a down set.
func cloneSet[K comparable](m map[K]bool) map[K]bool {
	out := make(map[K]bool, len(m))
	for k, v := range m {
		if v {
			out[k] = v
		}
	}
	return out
}

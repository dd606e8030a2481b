// Package ctrl is the long-running FFC TE controller service: it owns a
// core.Session (LP model template + warm simplex basis carried across
// intervals), ingests streamed topology/demand updates, recomputes the TE
// plan on a ticker and on update arrival, and serves the installed plan
// from an immutable snapshot behind an atomic pointer so queries never
// block on a solve. Solver trouble — budget hits, crashes, injected faults,
// infeasibility that survives the unprotected retry — falls back through
// core.Degrade, with the reason exposed in the plan metadata and counted
// in internal/obs. A periodic snapshot of the installed state lets a
// restarted daemon serve its first query before its first solve completes.
//
// cmd/ffcd wraps a Controller + Server into the daemon binary; cmd/ffcload
// is the matching load generator. The sim package remains the offline twin
// of this loop — both degrade through the same core paths.
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
	// Opts tunes the solver (encoding, §6 skips, build workers, ...).
	Opts core.Options
	// Interval is the recompute ticker period; updates additionally kick an
	// immediate recompute. Default 5s.
	Interval time.Duration
	// SolveDeadline bounds each recompute's wall clock; a miss degrades to
	// the last-good plan. Zero defers to Opts.SolveBudget.
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
	// Hook is forwarded to every solve's Budget.Hook (observation and fault
	// injection in tests).
	Hook func(iters int)
	// Logf, when non-nil, receives operational log lines (install
	// transitions, restore, snapshot errors).
	Logf func(format string, args ...interface{})
	// Certify, when non-nil, independently certifies plans with
	// internal/check: every install is checked asynchronously (never
	// blocking the serve or solve path; a full queue drops the job and
	// counts ctrl.cert_skipped), and a restored snapshot is checked
	// synchronously at boot — a plan that fails certification is not
	// served as restored. Prot, RateLimiter, and the down sets are filled
	// per install; the remaining fields (Mode, MaxExactCases, Restarts,
	// Seed, FailFast) come from this template.
	Certify *check.Params
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
	certSkipped      atomic.Int64
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
	CertSkipped      int64 `json:"cert_skipped"`
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
	solver  *core.Solver
	session *core.Session

	rng          *rand.Rand
	intervalN    int
	lastSnapshot time.Time

	stats    statsCell
	restored bool

	// Async certification (nil unless Config.Certify is set and Start ran).
	certCh   chan certJob
	certDone chan struct{}

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
	restoredSeq := int64(0)
	var restoredState *wire.StateFile
	var restoredReason string
	if cfg.SnapshotPath != "" {
		snap, err := loadSnapshot(cfg.SnapshotPath)
		if err != nil {
			c.cfg.Logf("ctrl: no snapshot restored: %v", err)
		} else {
			if err := c.adoptSnapshot(snap); err != nil {
				return nil, fmt.Errorf("ctrl: restoring snapshot %s: %w", cfg.SnapshotPath, err)
			}
			restoredSeq = snap.Seq
			restoredState = &snap.State
			restoredReason = snap.Degraded
			c.restored = true
		}
	}
	c.relayout(c.demands)
	if restoredState != nil {
		st, err := wire.ResolveState(c.net, c.set, restoredState)
		if err != nil {
			return nil, fmt.Errorf("ctrl: restoring snapshot state: %w", err)
		}
		certified := true
		if cfg.Certify != nil {
			// Re-certify synchronously before serving: a snapshot is the
			// one plan this process never solved itself, so a corrupted or
			// semantically-stale file must not be served as restored=true.
			// prev = st (a restart installs exactly what was running, so no
			// ingress is stale relative to it).
			job := certJob{
				prev: st, set: c.set,
				params: c.certParams(c.prot, restoredReason, c.downLinks, c.downSwitches),
			}
			job.plan = &Plan{Seq: restoredSeq, Degraded: restoredReason, State: st}
			certified = c.runCert(job)
		}
		if certified {
			c.install(st, c.demands.Clone(), c.prot, installMeta{
				seq: restoredSeq, degraded: restoredReason, restored: true,
				outcome:   core.OutcomeOptimal,
				downLinks: c.downLinks, downSwitches: c.downSwitches,
				prev: st,
			})
			c.cfg.Logf("ctrl: restored plan seq=%d from %s (%d flows); serving while the first solve runs",
				restoredSeq, cfg.SnapshotPath, len(restoredState.Flows))
		} else {
			c.restored = false
			c.cfg.Logf("ctrl: snapshot plan seq=%d from %s failed certification; serving empty plan instead",
				restoredSeq, cfg.SnapshotPath)
			c.install(core.NewState(), c.demands.Clone(), c.prot, installMeta{
				seq: 0, degraded: "unsolved", outcome: core.OutcomeSolverError,
			})
		}
	} else {
		// Serve an explicit empty plan from the start: a query must never
		// observe "no plan", only "the plan grants nothing yet".
		c.install(core.NewState(), c.demands.Clone(), c.prot, installMeta{
			seq: 0, degraded: "unsolved", outcome: core.OutcomeSolverError,
		})
	}
	return c, nil
}

// Start launches the recompute loop (and the async certifier when
// configured).
func (c *Controller) Start() {
	c.startCertifier()
	c.ctx, c.cancel = context.WithCancel(context.Background())
	go c.run()
}

// Stop drains the controller: the in-flight solve is cancelled through the
// budget path, the loop exits, queued certifications finish, and a final
// snapshot is written.
func (c *Controller) Stop() {
	if c.cancel == nil {
		return
	}
	c.cancel()
	<-c.done
	c.stopCertifier()
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
		CertSkipped:      c.stats.certSkipped.Load(),
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
// change nothing.
func (c *Controller) Apply(u *wire.Update) error {
	if err := u.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer func() {
		pending := c.pending
		c.mu.Unlock()
		obsQueueDepth.Set(pending)
		c.Kick()
	}()
	switch u.Op {
	case wire.UpdateDemands:
		next := c.demands
		if u.Reset {
			next = demand.Matrix{}
		}
		// Resolve every entry before touching the matrix: an update is
		// applied atomically or not at all.
		type resolved struct {
			f tunnel.Flow
			d float64
		}
		rs := make([]resolved, 0, len(u.Demands))
		for i, d := range u.Demands {
			src, ok := c.net.SwitchByName(d.Src)
			if !ok {
				return fmt.Errorf("ctrl: demands update entry %d: unknown switch %q", i, d.Src)
			}
			dst, ok := c.net.SwitchByName(d.Dst)
			if !ok {
				return fmt.Errorf("ctrl: demands update entry %d: unknown switch %q", i, d.Dst)
			}
			rs = append(rs, resolved{tunnel.Flow{Src: src, Dst: dst}, d.Demand})
		}
		if u.Reset {
			c.demands = next
		}
		for _, r := range rs {
			c.demands[r.f] = r.d
		}
	case wire.UpdateLink:
		src, ok := c.net.SwitchByName(u.Src)
		if !ok {
			return fmt.Errorf("ctrl: link update: unknown switch %q", u.Src)
		}
		dst, ok := c.net.SwitchByName(u.Dst)
		if !ok {
			return fmt.Errorf("ctrl: link update: unknown switch %q", u.Dst)
		}
		l := c.net.FindLink(src, dst)
		if l == topology.None {
			l = c.net.FindLink(dst, src)
		}
		if l == topology.None {
			return fmt.Errorf("ctrl: link update: no link %s-%s", u.Src, u.Dst)
		}
		ids := []topology.LinkID{l}
		if tw := c.net.Links[l].Twin; tw != topology.None {
			ids = append(ids, tw)
		}
		for _, id := range ids {
			if *u.Up {
				delete(c.downLinks, id)
			} else {
				c.downLinks[id] = true
			}
		}
	case wire.UpdateSwitch:
		sw, ok := c.net.SwitchByName(u.Switch)
		if !ok {
			return fmt.Errorf("ctrl: switch update: unknown switch %q", u.Switch)
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

// relayout (re)builds the tunnel set, solver, and session for the flows of
// dem. The session starts cold — a changed flow set changes the model shape.
func (c *Controller) relayout(dem demand.Matrix) {
	flows := dem.Flows()
	c.set = tunnel.Layout(c.net, flows, c.cfg.Layout)
	c.solver = core.NewSolver(c.net, c.set, c.cfg.Opts)
	c.session = c.solver.NewSession()
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

// recompute runs one control interval: snapshot the desired state, solve
// (warm, templated), and install either the fresh plan or the core.Degrade
// fallback with its reason.
func (c *Controller) recompute() {
	c.mu.Lock()
	dem := c.demands.Clone()
	prot := c.prot
	dl := cloneIDSet(c.downLinks)
	ds := cloneSwitchSet(c.downSwitches)
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

	in := core.Input{
		Demands:      dem,
		Prot:         prot,
		Prev:         prev,
		DownLinks:    dl,
		DownSwitches: ds,
	}
	in.Budget.Ctx = c.ctx
	in.Budget.Deadline = c.cfg.SolveDeadline
	in.Budget.Hook = c.cfg.Hook

	injected := ""
	if k, ok := c.cfg.Faults.Sample(c.intervalN, c.rng); ok {
		switch k {
		case faults.SolverTimeout:
			in.Budget.Deadline = -time.Nanosecond
			injected = "timeout"
		case faults.SolverCrash:
			in.Budget.Hook = func(int) { panic("ctrl: injected solver crash") }
			injected = "crash"
		case faults.SolverStale:
			injected = "stale"
		}
	}
	c.intervalN++

	start := time.Now()
	achieved := prot
	st, stats, err := c.session.Solve(in)
	if err != nil && stats != nil && stats.Outcome == core.OutcomeInfeasible && prot != core.None {
		// The protected LP has no solution (heavy faults can shrink the
		// network below the protection level): retry unprotected, cold.
		in2 := in
		in2.Prot = core.None
		st, stats, err = c.solver.Solve(in2)
		if err == nil {
			// The installed plan was solved without protection; record
			// that, or certification (and clients) would hold it to a
			// guarantee it never promised.
			achieved = core.None
		}
	}
	solveTime := time.Since(start)
	c.stats.solveCount.Add(1)
	c.stats.solveSumNs.Add(solveTime.Nanoseconds())
	for {
		max := c.stats.solveMaxNs.Load()
		if ns := solveTime.Nanoseconds(); ns <= max || c.stats.solveMaxNs.CompareAndSwap(max, ns) {
			break
		}
	}
	if c.ctx.Err() != nil && err != nil {
		// Shutting down: the cancelled solve must not install anything.
		return
	}

	reason := ""
	switch {
	case err != nil:
		reason = degradeReason(stats, injected)
	case injected == "stale":
		// The fresh plan missed its installation window.
		reason = "stale"
	}
	outcome := core.OutcomeSolverError
	if stats != nil {
		outcome = stats.Outcome
	}
	if reason != "" {
		st = core.Degrade(c.net, c.set, prev, dl, ds)
		// Installed limiters persist, but flows only offer current demand.
		for f, r := range st.Rate {
			if d := dem[f]; r > d {
				st.Rate[f] = d
			}
		}
		core.NoteDegradedInterval()
	}

	seq := int64(1)
	if last != nil {
		seq = last.Seq + 1
	}
	c.install(st, dem, achieved, installMeta{
		seq: seq, degraded: reason, outcome: outcome, solveTime: solveTime,
		prev: prev, downLinks: dl, downSwitches: ds,
	})
	if reason != "" {
		c.cfg.Logf("ctrl: installed DEGRADED plan seq=%d reason=%s (outcome %v, %v)", seq, reason, outcome, solveTime.Round(time.Microsecond))
	}
	c.writeSnapshot(false)
}

// degradeReason names why a recompute failed, mirroring the sim's
// accounting so timelines and daemon metadata agree.
func degradeReason(stats *core.Stats, injected string) string {
	if injected != "" {
		return injected
	}
	if stats == nil {
		return "solver-error"
	}
	switch stats.Outcome {
	case core.OutcomeBudgetHit:
		return "deadline"
	case core.OutcomeInfeasible:
		return "infeasible"
	}
	return "solver-error"
}

func cloneIDSet(m map[topology.LinkID]bool) map[topology.LinkID]bool {
	out := make(map[topology.LinkID]bool, len(m))
	for k, v := range m {
		if v {
			out[k] = v
		}
	}
	return out
}

func cloneSwitchSet(m map[topology.SwitchID]bool) map[topology.SwitchID]bool {
	out := make(map[topology.SwitchID]bool, len(m))
	for k, v := range m {
		if v {
			out[k] = v
		}
	}
	return out
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§7–§8) on the synthetic L-Net/S-Net substrates. Each Fig*/
// Table* function writes the same rows or series the paper reports to an
// io.Writer and returns structured results for programmatic checks; the
// cmd/ffcbench CLI and the repository's benchmark suite both drive them.
//
// Scale note: the real L-Net is O(50) sites/O(1000) links and the paper
// solved its LPs with CPLEX; the default environments here are smaller so
// the full suite completes against the pure-Go simplex. The shapes being
// reproduced (who wins, by what factor, where crossovers fall) are scale-
// robust; EXPERIMENTS.md records paper-vs-measured for every artifact.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/metrics"
	"ffc/internal/obs"
	"ffc/internal/parallel"
	"ffc/internal/sim"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// obsExpSolve is the per-interval TE solve latency distribution across
// the experiment harness (Fig12 protection sweeps and Table2 timing).
var obsExpSolve = obs.NewHistogram("experiments.interval_solve")

// Env bundles one evaluation network with its demand series and tunnels.
type Env struct {
	Name   string
	Net    *topology.Network
	Tun    *tunnel.Set
	Series demand.Series // unscaled
	Scale1 float64       // multiplier defining traffic scale 1.0
	Seed   int64
	Opts   core.Options
	// Parallelism bounds the per-figure worker pools (see
	// EnvConfig.Parallelism). Mutable between figure runs.
	Parallelism int
	// WarmStart carries each serial interval loop's LP basis (and, where the
	// model shape allows, the built model) across intervals: it is forwarded
	// to every sim.RunConfig the harness builds and to Table2's per-config
	// solve chains. Mutable between figure runs.
	WarmStart bool
	// SolverDeadline bounds every per-interval TE solve the harness runs; a
	// solve that misses it degrades the interval to the last-good plan (see
	// sim.RunConfig.SolverDeadline). Zero means unbounded. Mutable between
	// figure runs.
	SolverDeadline time.Duration
	// SolverFaults injects controller failures (timeouts, crashes, stale
	// results) into every sim the harness builds. Mutable between figure
	// runs.
	SolverFaults faults.SolverFaultModel
	// Ctx cancels every sim.Scenario the environment builds (see
	// sim.Scenario.Ctx): long CLI runs wire SIGINT/SIGTERM here so an
	// interrupted sweep still reports the intervals it finished. Mutable
	// between figure runs.
	Ctx context.Context
}

// EnvConfig sizes an environment.
type EnvConfig struct {
	// Sites for the L-Net generator (ignored for S-Net). Default 8.
	Sites int
	// Intervals in the demand series. Default 24.
	Intervals int
	// Seed for all generation. A zero Seed defaults to 1 unless SeedSet
	// marks it as explicitly requested.
	Seed int64
	// SeedSet distinguishes "seed 0" from "Seed left unset": without it
	// the zero value is rewritten to the default of 1.
	SeedSet bool
	// Encoding for the big sweeps. Default core.Compact — identical
	// optima to the paper's sorting network at a fraction of the LP size
	// (the ablation experiment quantifies the difference; SortNet remains
	// the default encoding of the core library itself).
	Encoding core.Encoding
	// TunnelsPerFlow for the (1,3) link-switch disjoint layout. Default 6.
	TunnelsPerFlow int
	// Parallelism bounds the worker count for the harness's independent
	// TE intervals and scenario replays. ≤ 0 means all cores
	// (runtime.GOMAXPROCS(0)); 1 forces the serial path. Results are
	// bit-identical at any setting (per-interval RNG seeds are derived
	// with faults.DeriveSeed).
	Parallelism int
	// WarmStart enables warm-started interval re-solves throughout the
	// harness (see Env.WarmStart). Optima match cold runs; the simplex may
	// pick a different vertex among ties.
	WarmStart bool
	// SolverDeadline bounds each per-interval TE solve (see
	// Env.SolverDeadline). Zero means unbounded.
	SolverDeadline time.Duration
	// SolverFaults injects controller failures into every sim run (see
	// Env.SolverFaults).
	SolverFaults faults.SolverFaultModel
	// Ctx cancels every scenario the environment builds (see Env.Ctx).
	Ctx context.Context
}

func (c *EnvConfig) fill() {
	if c.Sites == 0 {
		c.Sites = 8
	}
	if c.Intervals == 0 {
		c.Intervals = 24
	}
	if c.Seed == 0 && !c.SeedSet {
		c.Seed = 1
	}
	if c.TunnelsPerFlow == 0 {
		c.TunnelsPerFlow = 6
	}
}

func buildEnv(name string, net *topology.Network, cfg EnvConfig) (*Env, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	series := demand.Generate(net, demand.Config{Intervals: cfg.Intervals}, rng)
	flows := sim.FlowsOf(series)
	tun := tunnel.Layout(net, flows, tunnel.LayoutConfig{TunnelsPerFlow: cfg.TunnelsPerFlow, P: 1, Q: 3})
	opts := core.Options{Encoding: cfg.Encoding, MiceFraction: 0.01, OldLoadSkip: 1e-5, WeightSkip: 1e-3}
	solver := core.NewSolver(net, tun, opts)
	scale1, err := sim.CalibrateScale(solver, series, 0.99, 3)
	if err != nil {
		return nil, fmt.Errorf("experiments: calibrating %s: %w", name, err)
	}
	return &Env{Name: name, Net: net, Tun: tun, Series: series, Scale1: scale1, Seed: cfg.Seed, Opts: opts, Parallelism: cfg.Parallelism, WarmStart: cfg.WarmStart, SolverDeadline: cfg.SolverDeadline, SolverFaults: cfg.SolverFaults, Ctx: cfg.Ctx}, nil
}

// runCfg seeds a sim.RunConfig with the environment-wide solver settings:
// LP options, warm starting, the per-solve deadline, and injected
// controller faults. Figure runners layer protection/priority config on
// top of it.
func (e *Env) runCfg(prot core.Protection) sim.RunConfig {
	return sim.RunConfig{
		Prot:           prot,
		SolverOpts:     e.Opts,
		WarmStart:      e.WarmStart,
		SolverDeadline: e.SolverDeadline,
		SolverFaults:   e.SolverFaults,
	}
}

// NewLNet builds the L-Net-like environment.
func NewLNet(cfg EnvConfig) (*Env, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := topology.LNet(topology.LNetConfig{Sites: cfg.Sites}, rng)
	return buildEnv("L-Net", net, cfg)
}

// NewSNet builds the S-Net (B4 12-site) environment.
func NewSNet(cfg EnvConfig) (*Env, error) {
	cfg.fill()
	return buildEnv("S-Net", topology.SNet(), cfg)
}

// Scenario assembles a sim.Scenario at the given traffic scale.
func (e *Env) Scenario(scale float64, model faults.SwitchModel) sim.Scenario {
	return sim.Scenario{
		Net: e.Net, Tun: e.Tun,
		Series:      sim.ScaleSeries(e.Series, e.Scale1*scale),
		Interval:    5 * time.Minute,
		Failures:    faults.LNetFailures(),
		Switches:    model,
		Seed:        e.Seed + 1000,
		Parallelism: e.Parallelism,
		Ctx:         e.Ctx,
	}
}

// CDFSeries is one labelled empirical distribution for figure output.
type CDFSeries struct {
	Label string
	Dist  *metrics.Dist
}

func printCDFs(w io.Writer, title string, series []CDFSeries, points int) {
	fmt.Fprintf(w, "## %s\n", title)
	for _, s := range series {
		fmt.Fprint(w, metrics.RenderCDF(s.Label, s.Dist.CDF(points)))
	}
}

// Fig1a characterizes congestion from data-plane faults under plain TE:
// CDFs of maximum link oversubscription for 1–3 link failures and 1 switch
// failure per interval.
func Fig1a(e *Env, w io.Writer) ([]CDFSeries, error) {
	var out []CDFSeries
	sc := e.Scenario(1.0, faults.Realistic())
	for n := 1; n <= 3; n++ {
		d, err := sim.OversubDataFaults(sc, core.None, n, false)
		if err != nil {
			return nil, err
		}
		out = append(out, CDFSeries{fmt.Sprintf("%d link(s)", n), d})
	}
	d, err := sim.OversubDataFaults(sc, core.None, 0, true)
	if err != nil {
		return nil, err
	}
	out = append(out, CDFSeries{"1 switch", d})
	printCDFs(w, fmt.Sprintf("Fig 1(a) — %s: link oversubscription (%%) under data-plane faults, plain TE", e.Name), out, 20)
	return out, nil
}

// Fig1b is the control-plane analogue: 1–3 switches stuck on the previous
// interval's configuration.
func Fig1b(e *Env, w io.Writer) ([]CDFSeries, error) {
	var out []CDFSeries
	sc := e.Scenario(1.0, faults.Realistic())
	for n := 1; n <= 3; n++ {
		d, err := sim.OversubControlFaults(sc, core.None, n)
		if err != nil {
			return nil, err
		}
		out = append(out, CDFSeries{fmt.Sprintf("%d fault(s)", n), d})
	}
	printCDFs(w, fmt.Sprintf("Fig 1(b) — %s: link oversubscription (%%) under control-plane faults, plain TE", e.Name), out, 20)
	return out, nil
}

// Fig6 prints the two switch-update latency models (the paper's measured
// distributions that the simulation samples from).
func Fig6(w io.Writer) {
	fmt.Fprintln(w, "## Fig 6 — switch update latency models")
	for _, m := range []faults.SwitchModel{faults.Realistic(), faults.Optimistic()} {
		fmt.Fprintf(w, "# model %s (config-failure rate %.2g, %d rules/update)\n",
			m.Name, m.ConfigFailureRate, m.RulesPerUpdate)
		tab := metrics.NewTable("quantile", "rpc", "per-rule")
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			tab.Row(q, m.RPC.Quantile(q).String(), m.PerRule.Quantile(q).String())
		}
		fmt.Fprint(w, tab.String())
	}
}

// Fig12Row is one bar of Figure 12: the FFC throughput overhead
// (1 − throughput ratio, percent) at the 50th/90th/99th percentiles.
type Fig12Row struct {
	Plane   string // "control" or "data"
	Scale   float64
	K       int
	P50     float64
	P90     float64
	P99     float64
	Samples int
}

// Fig12 measures FFC's throughput overhead in isolation: per interval,
// solve plain TE and FFC TE on identical demands (no faults injected, no
// carryover) and report 1 − (FFC throughput / plain throughput).
//
// Intervals are independent here (the FFC solve's Prev is the previous
// interval's plain-TE state, itself computed without carryover), so both
// the shared plain-TE baselines and each protection level's sweep fan out
// over e.Parallelism workers; the simplex is deterministic per input, so
// the rows are identical to a serial run.
func Fig12(e *Env, w io.Writer) ([]Fig12Row, error) {
	var rows []Fig12Row
	solver := core.NewSolver(e.Net, e.Tun, e.Opts)
	scales := []float64{0.5, 1, 2}

	// Plain-TE baselines per scale, shared by every protection level.
	scaled := map[float64]demand.Series{}
	baseStates := map[float64][]*core.State{}
	for _, scale := range scales {
		series := sim.ScaleSeries(e.Series, e.Scale1*scale)
		states := make([]*core.State, len(series))
		errs := make([]error, len(series))
		parallel.ForEach(len(series), e.Parallelism, func(t int) {
			states[t], _, errs[t] = solver.Solve(core.Input{Demands: series[t]})
		})
		if err := parallel.FirstError(errs); err != nil {
			return nil, err
		}
		scaled[scale], baseStates[scale] = series, states
	}

	overheads := func(prot func(k int) core.Protection, plane string, ks []int) error {
		for _, scale := range scales {
			series, base := scaled[scale], baseStates[scale]
			for _, k := range ks {
				overheadPct := make([]float64, len(series))
				parallel.ForEach(len(series), e.Parallelism, func(t int) {
					prev := core.NewState()
					if t > 0 {
						prev = base[t-1]
					}
					in := core.Input{Demands: series[t], Prot: prot(k), Prev: prev}
					ffc, stats, err := solver.Solve(in)
					if stats != nil && obs.Enabled() {
						obsExpSolve.ObserveDuration(stats.SolveTime)
					}
					if err != nil {
						// Infeasible at this protection level: total loss
						// of throughput for the interval.
						overheadPct[t] = 100
						return
					}
					overheadPct[t] = 100 * (1 - metrics.SafeRatio(ffc.TotalRate(), base[t].TotalRate(), 1))
				})
				var dist metrics.Dist
				for _, v := range overheadPct {
					dist.Add(v)
				}
				rows = append(rows, Fig12Row{
					Plane: plane, Scale: scale, K: k,
					P50: dist.Percentile(50), P90: dist.Percentile(90), P99: dist.Percentile(99),
					Samples: dist.N(),
				})
			}
		}
		return nil
	}

	if err := overheads(func(k int) core.Protection { return core.Protection{Kc: k} }, "control", []int{1, 2, 3}); err != nil {
		return nil, err
	}
	if err := overheads(func(k int) core.Protection { return core.Protection{Ke: k} }, "data", []int{1, 2, 3}); err != nil {
		return nil, err
	}
	// kv=1 ("Kr=1" in the figure): one switch failure.
	if err := overheads(func(int) core.Protection { return core.Protection{Kv: 1} }, "data-kv", []int{1}); err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "## Fig 12 — %s: FFC throughput overhead (%%), 1 − throughput ratio\n", e.Name)
	tab := metrics.NewTable("plane", "scale", "k", "p50", "p90", "p99")
	for _, r := range rows {
		tab.Row(r.Plane, r.Scale, r.K, r.P50, r.P90, r.P99)
	}
	fmt.Fprint(w, tab.String())
	return rows, nil
}

// Table2Row is one cell of Table 2.
type Table2Row struct {
	Network  string
	Config   string
	MeanTime time.Duration
	Vars     int
	Cons     int
}

// Table2 benchmarks TE computation time for FFC (3,3,0)∪(3,0,1) (which the
// (1,3)-disjoint layout provides via the Eqn 15 slack), FFC (2,1,0), and
// plain TE, averaged over the series' intervals. The three configurations
// are independent and run across e.Parallelism workers (each one's
// intervals chain through its previous state, so they stay serial within a
// configuration); per-solve times are measured inside Solve, but expect
// some wall-clock contention when comparing absolute numbers across
// parallel runs.
func Table2(e *Env, w io.Writer) ([]Table2Row, error) {
	solver := core.NewSolver(e.Net, e.Tun, e.Opts)
	series := sim.ScaleSeries(e.Series, e.Scale1)
	n := len(series)
	if n > 6 {
		n = 6
	}
	configs := []struct {
		name string
		prot core.Protection
	}{
		{"FFC (3,3,0)∪(3,0,1)", core.Protection{Kc: 3, Ke: 3}},
		{"FFC (2,1,0)", core.Protection{Kc: 2, Ke: 1}},
		{"Non-FFC", core.None},
	}
	rows := make([]Table2Row, len(configs))
	errs := make([]error, len(configs))
	parallel.ForEach(len(configs), e.Parallelism, func(ci int) {
		cfg := configs[ci]
		var total time.Duration
		var vars, cons int
		prev := core.NewState()
		// Each configuration's intervals form one serial solve chain, the
		// natural consumer of a warm-start session.
		solve := solver.Solve
		if e.WarmStart {
			solve = solver.NewSession().Solve
		}
		for i := 0; i < n; i++ {
			in := core.Input{Demands: series[i], Prot: cfg.prot}
			if cfg.prot.Kc > 0 {
				in.Prev = prev
			}
			st, stats, err := solve(in)
			if err != nil {
				errs[ci] = fmt.Errorf("table2 %s: %w", cfg.name, err)
				return
			}
			if obs.Enabled() {
				obsExpSolve.ObserveDuration(stats.SolveTime)
			}
			total += stats.SolveTime
			vars, cons = stats.Vars, stats.Constraints
			prev = st
		}
		rows[ci] = Table2Row{e.Name, cfg.name, total / time.Duration(n), vars, cons}
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Table 2 — %s: TE computation time\n", e.Name)
	tab := metrics.NewTable("network", "config", "mean-time", "vars", "constraints")
	for _, r := range rows {
		tab.Row(r.Network, r.Config, r.MeanTime.String(), r.Vars, r.Cons)
	}
	fmt.Fprint(w, tab.String())
	return rows, nil
}

// Fig13Row is one bar pair of Figure 13.
type Fig13Row struct {
	Model           string
	Scale           float64
	ThroughputRatio float64
	LossRatio       float64
	BaseLoss        float64
	FFCLoss         float64
}

// Fig13 runs the end-to-end single-priority comparison: FFC (2,1,0) versus
// plain TE under the full fault environment, for both switch models and all
// three traffic scales.
func Fig13(e *Env, w io.Writer, models []faults.SwitchModel, scales []float64) ([]Fig13Row, error) {
	if len(models) == 0 {
		models = []faults.SwitchModel{faults.Realistic(), faults.Optimistic()}
	}
	if len(scales) == 0 {
		scales = []float64{0.5, 1, 2}
	}
	// Every (model, scale) pair needs a baseline and an FFC replay of the
	// same scenario; all of them are independent, so they fan out together.
	type job struct {
		sc  sim.Scenario
		cfg sim.RunConfig
	}
	var jobs []job
	for _, model := range models {
		for _, scale := range scales {
			sc := e.Scenario(scale, model)
			jobs = append(jobs, job{sc, e.runCfg(core.None)})
			jobs = append(jobs, job{sc, e.runCfg(core.Protection{Kc: 2, Ke: 1})})
		}
	}
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	parallel.ForEach(len(jobs), e.Parallelism, func(i int) {
		results[i], errs[i] = sim.Run(jobs[i].sc, jobs[i].cfg)
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	var rows []Fig13Row
	i := 0
	for _, model := range models {
		for _, scale := range scales {
			base, ffc := results[i], results[i+1]
			i += 2
			rows = append(rows, Fig13Row{
				Model: model.Name, Scale: scale,
				ThroughputRatio: ffc.ThroughputRatioVs(base),
				LossRatio:       ffc.LossRatioVs(base),
				BaseLoss:        base.Total.LossBytes,
				FFCLoss:         ffc.Total.LossBytes,
			})
		}
	}
	fmt.Fprintf(w, "## Fig 13 — %s: single-priority throughput and data-loss ratios (FFC (2,1,0) vs non-FFC)\n", e.Name)
	tab := metrics.NewTable("model", "scale", "throughput-ratio", "loss-ratio", "base-loss", "ffc-loss")
	for _, r := range rows {
		tab.Row(r.Model, r.Scale, r.ThroughputRatio, r.LossRatio, r.BaseLoss, r.FFCLoss)
	}
	fmt.Fprint(w, tab.String())
	return rows, nil
}

// Fig14Row summarizes the multi-priority comparison for one class.
type Fig14Row struct {
	Class           string
	ThroughputRatio float64
	LossRatio       float64
	// FFCLossFrac / BaseLossFrac: the class's share of all lost bytes.
	FFCLossFrac  float64
	BaseLossFrac float64
}

// Fig14 runs the multi-priority experiment at traffic scale 1 with the
// paper's per-class protection levels: high (3,0,1)∪(3,3,0), medium
// (2,1,0), low unprotected.
func Fig14(e *Env, w io.Writer, model faults.SwitchModel) ([]Fig14Row, error) {
	sc := e.Scenario(1.0, model)
	rng := rand.New(rand.NewSource(e.Seed + 99))
	splits := demand.RandomSplits(sim.FlowsOf(sc.Series), rng)

	multiProt := &sim.PriorityConfig{Splits: splits}
	multiProt.Prot[demand.High] = core.Protection{Kc: 3, Ke: 3}
	multiProt.Prot[demand.Med] = core.Protection{Kc: 2, Ke: 1}
	multiProt.Prot[demand.Low] = core.None
	multiBase := &sim.PriorityConfig{Splits: splits} // all classes unprotected

	// The protected and baseline cascades replay the same scenario
	// independently; RunMany runs them concurrently.
	baseCfg, protCfg := e.runCfg(core.None), e.runCfg(core.None)
	baseCfg.Multi, protCfg.Multi = multiBase, multiProt
	res, err := sim.RunMany(sc, []sim.RunConfig{baseCfg, protCfg})
	if err != nil {
		return nil, err
	}
	base, ffc := res[0], res[1]

	classes := []demand.Priority{demand.High, demand.Med, demand.Low}
	var rows []Fig14Row
	for _, p := range classes {
		rows = append(rows, Fig14Row{
			Class:           p.String(),
			ThroughputRatio: metrics.SafeRatio(ffc.ByPriority[p].DeliveredBytes(), base.ByPriority[p].DeliveredBytes(), 1),
			LossRatio:       metrics.SafeRatio(ffc.ByPriority[p].LossBytes, base.ByPriority[p].LossBytes, 0),
			FFCLossFrac:     metrics.SafeRatio(ffc.ByPriority[p].LossBytes, ffc.Total.LossBytes, 0),
			BaseLossFrac:    metrics.SafeRatio(base.ByPriority[p].LossBytes, base.Total.LossBytes, 0),
		})
	}
	rows = append(rows, Fig14Row{
		Class:           "total",
		ThroughputRatio: ffc.ThroughputRatioVs(base),
		LossRatio:       ffc.LossRatioVs(base),
		FFCLossFrac:     1, BaseLossFrac: 1,
	})
	fmt.Fprintf(w, "## Fig 14 — %s: multi-priority (scale 1, %s model)\n", e.Name, model.Name)
	tab := metrics.NewTable("class", "throughput-ratio", "loss-ratio", "ffc-loss-frac", "base-loss-frac")
	for _, r := range rows {
		tab.Row(r.Class, r.ThroughputRatio, r.LossRatio, r.FFCLossFrac, r.BaseLossFrac)
	}
	fmt.Fprint(w, tab.String())
	return rows, nil
}

// Fig15Point is one point of the loss-vs-throughput trade-off curve.
type Fig15Point struct {
	Scale           float64
	Ke              int
	ThroughputRatio float64 // percent
	LossRatio       float64 // percent
}

// Fig15 sweeps the link protection level (kc=kv=0) under the Realistic
// model and reports the trade-off between data loss and throughput, both as
// percentages of the unprotected run (the paper's (100,100) corner).
func Fig15(e *Env, w io.Writer, scales []float64, maxKe int) ([]Fig15Point, error) {
	if len(scales) == 0 {
		scales = []float64{0.5, 1, 2}
	}
	if maxKe == 0 {
		maxKe = 3
	}
	// One baseline plus maxKe protected replays per scale, all independent.
	type job struct {
		sc  sim.Scenario
		cfg sim.RunConfig
	}
	var jobs []job
	for _, scale := range scales {
		sc := e.Scenario(scale, faults.Realistic())
		jobs = append(jobs, job{sc, e.runCfg(core.None)})
		for ke := 1; ke <= maxKe; ke++ {
			jobs = append(jobs, job{sc, e.runCfg(core.Protection{Ke: ke})})
		}
	}
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	parallel.ForEach(len(jobs), e.Parallelism, func(i int) {
		results[i], errs[i] = sim.Run(jobs[i].sc, jobs[i].cfg)
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	var pts []Fig15Point
	i := 0
	for _, scale := range scales {
		base := results[i]
		i++
		pts = append(pts, Fig15Point{Scale: scale, Ke: 0, ThroughputRatio: 100, LossRatio: 100})
		for ke := 1; ke <= maxKe; ke++ {
			ffc := results[i]
			i++
			pts = append(pts, Fig15Point{
				Scale: scale, Ke: ke,
				ThroughputRatio: 100 * ffc.ThroughputRatioVs(base),
				LossRatio:       100 * ffc.LossRatioVs(base),
			})
		}
	}
	fmt.Fprintf(w, "## Fig 15 — %s: data loss vs throughput trade-off (link protection sweep)\n", e.Name)
	tab := metrics.NewTable("scale", "ke", "throughput-ratio-%", "loss-ratio-%")
	for _, p := range pts {
		tab.Row(p.Scale, p.Ke, p.ThroughputRatio, p.LossRatio)
	}
	fmt.Fprint(w, tab.String())
	return pts, nil
}

// Fig16Result carries the update-time CDFs.
type Fig16Result struct {
	Model   string
	FFC     *metrics.Dist // seconds
	NonFFC  *metrics.Dist
	Updates int
}

// Fig16 simulates congestion-free multi-step updates: per interval pair a
// 2–3 step chain over the network's ingress switches, executed with and
// without FFC (kc=2) under both switch models.
func Fig16(e *Env, w io.Writer, updates int) ([]Fig16Result, error) {
	if updates == 0 {
		updates = 200
	}
	// Network updates touch every switch (tunnel state lives on transit
	// switches too, and the paper's L-Net updates ~100 switches).
	nSwitches := e.Net.NumSwitches()
	var out []Fig16Result
	for _, model := range []faults.SwitchModel{faults.Realistic(), faults.Optimistic()} {
		rng := rand.New(rand.NewSource(e.Seed + 31))
		ffc, base := &metrics.Dist{}, &metrics.Dist{}
		for i := 0; i < updates; i++ {
			steps := 2 + rng.Intn(2) // chains of 2–3 steps (§5.2 plans)
			cfgBase := sim.UpdateExecConfig{Steps: steps, Switches: nSwitches, Kc: 0, Model: model, Deadline: 300 * time.Second}
			cfgFFC := cfgBase
			cfgFFC.Kc = 2
			base.Add(sim.SimulateUpdateExecution(cfgBase, rng).Seconds())
			ffc.Add(sim.SimulateUpdateExecution(cfgFFC, rng).Seconds())
		}
		out = append(out, Fig16Result{Model: model.Name, FFC: ffc, NonFFC: base, Updates: updates})
	}
	fmt.Fprintf(w, "## Fig 16 — %s: congestion-free update completion time (s)\n", e.Name)
	tab := metrics.NewTable("model", "approach", "p50", "p90", "p99", "stalled-at-300s-%")
	for _, r := range out {
		tab.Row(r.Model, "FFC kc=2", r.FFC.Percentile(50), r.FFC.Percentile(90), r.FFC.Percentile(99), 100*r.FFC.FractionAbove(299.9))
		tab.Row(r.Model, "Non-FFC", r.NonFFC.Percentile(50), r.NonFFC.Percentile(90), r.NonFFC.Percentile(99), 100*r.NonFFC.FractionAbove(299.9))
	}
	fmt.Fprint(w, tab.String())
	return out, nil
}

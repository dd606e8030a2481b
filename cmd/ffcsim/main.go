// Command ffcsim runs one end-to-end evaluation scenario (the §8 harness)
// and prints the accounting: an FFC configuration against the unprotected
// baseline under identical faults.
//
//	ffcsim -net lnet -sites 8 -intervals 24 -scale 1 -kc 2 -ke 1 -model realistic
//	ffcsim -net snet -multi               # the §8.4 multi-priority setup
//
// Output: throughput/loss ratios, loss breakdown (blackhole vs congestion),
// oversubscription percentiles, reactions, per-class results with -multi.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/experiments"
	"ffc/internal/faults"
	"ffc/internal/metrics"
	"ffc/internal/obs"
	"ffc/internal/sim"
	"ffc/internal/wire"
)

func main() {
	var (
		timeline   = flag.Bool("timeline", false, "print the per-interval timeline of the FFC run")
		netKind    = flag.String("net", "lnet", "network: lnet or snet")
		sites      = flag.Int("sites", 8, "L-Net sites")
		intervals  = flag.Int("intervals", 24, "TE intervals to simulate")
		scale      = flag.Float64("scale", 1.0, "traffic scale (1.0 = 99% of demand satisfiable)")
		kc         = flag.Int("kc", 2, "control-plane protection")
		ke         = flag.Int("ke", 1, "link protection")
		kv         = flag.Int("kv", 0, "switch protection")
		model      = flag.String("model", "realistic", "switch model: realistic or optimistic")
		multi      = flag.Bool("multi", false, "multi-priority (§8.4) protection levels")
		seed       = flag.Int64("seed", 1, "random seed")
		mtbf       = flag.Duration("link-mtbf", 30*time.Minute, "network-wide link MTBF")
		par        = flag.Int("parallel", 0, "worker count for parallel stages (<=0 = all cores, 1 = serial)")
		stats      = flag.Bool("stats", false, "print solver counters and the per-interval solve latency breakdown to stderr after the run")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address")
		deadline   = flag.Duration("solver-deadline", 0, "per-interval TE solve budget; a missed solve degrades the interval to the last-good plan (0 = unbounded)")
		injectSpec = flag.String("inject-solver", "", "inject controller faults, e.g. timeout=0.1,crash=0.01,stale=0.02 (per-interval probabilities)")
		tracePath  = flag.String("trace", "", "record the FFC run's installed plans as NDJSON trace records (replayable offline with ffccheck -trace)")
	)
	flag.Parse()

	injected, err := faults.ParseSolverFaults(*injectSpec)
	if err != nil {
		fatalf("-inject-solver: %v", err)
	}

	if *stats {
		obs.Enable()
	}
	if *debugAddr != "" {
		addr, err := obs.Serve(*debugAddr)
		if err != nil {
			fatalf("debug server: %v", err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/obs (pprof, vars)\n", addr)
	}

	// SIGINT/SIGTERM cancel the runs through the sim's budget path: the
	// in-flight solves stop within an iteration batch and the partial
	// results (intervals completed so far) are still printed. A second
	// signal kills the process the default way.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var env *experiments.Env
	cfg := experiments.EnvConfig{Sites: *sites, Intervals: *intervals, Seed: *seed, SeedSet: true, Parallelism: *par, Ctx: ctx}
	switch *netKind {
	case "lnet":
		env, err = experiments.NewLNet(cfg)
	case "snet":
		env, err = experiments.NewSNet(cfg)
	default:
		fatalf("unknown -net %q", *netKind)
	}
	if err != nil {
		fatalf("%v", err)
	}

	var sw faults.SwitchModel
	switch *model {
	case "realistic":
		sw = faults.Realistic()
	case "optimistic":
		sw = faults.Optimistic()
	default:
		fatalf("unknown -model %q", *model)
	}
	sc := env.Scenario(*scale, sw)
	sc.Failures.LinkMTBF = *mtbf

	baseCfg := sim.RunConfig{SolverOpts: env.Opts}
	ffcCfg := sim.RunConfig{Prot: core.Protection{Kc: *kc, Ke: *ke, Kv: *kv}, SolverOpts: env.Opts}
	if *multi {
		rng := rand.New(rand.NewSource(*seed + 99))
		splits := demand.RandomSplits(sim.FlowsOf(sc.Series), rng)
		mp := &sim.PriorityConfig{Splits: splits}
		mp.Prot[demand.High] = core.Protection{Kc: 3, Ke: 3}
		mp.Prot[demand.Med] = core.Protection{Kc: 2, Ke: 1}
		mp.Prot[demand.Low] = core.None
		ffcCfg = sim.RunConfig{Multi: mp, SolverOpts: env.Opts}
		baseCfg = sim.RunConfig{Multi: &sim.PriorityConfig{Splits: splits}, SolverOpts: env.Opts}
	}
	for _, c := range []*sim.RunConfig{&baseCfg, &ffcCfg} {
		c.SolverDeadline = *deadline
		c.SolverFaults = injected
	}
	if *tracePath != "" {
		traceFile, err := os.Create(*tracePath)
		if err != nil {
			fatalf("-trace: %v", err)
		}
		defer traceFile.Close()
		tw := bufio.NewWriter(traceFile)
		defer tw.Flush()
		// Trace the FFC run only (the baseline's unprotected plans certify
		// trivially at kc=ke=kv=0 and would double the file for nothing).
		ffcCfg.OnPlan = func(pr sim.PlanRecord) {
			links, sws := wire.NamedDownSets(env.Net, pr.DownLinks, pr.DownSwitches)
			rec := &wire.TraceRecord{
				Seq:          int64(pr.Interval) + 1,
				Class:        pr.Class.String(),
				Kc:           pr.Prot.Kc,
				Ke:           pr.Prot.Ke,
				Kv:           pr.Prot.Kv,
				Degraded:     pr.Degraded,
				DownLinks:    links,
				DownSwitches: sws,
				State:        wire.EncodeState(env.Net, sc.Tun, pr.Demands, pr.State),
			}
			if err := wire.WriteTraceRecord(tw, rec); err != nil {
				fatalf("-trace: %v", err)
			}
		}
	}

	fmt.Fprintf(os.Stderr, "simulating %s: %d switches, %d links, %d intervals, scale %.2g, %s model...\n",
		env.Name, env.Net.NumSwitches(), env.Net.NumLinks(), *intervals, *scale, sw.Name)
	res, err := sim.RunMany(sc, []sim.RunConfig{baseCfg, ffcCfg})
	if err != nil {
		fatalf("%v", err)
	}
	base, ffcRes := res[0], res[1]
	if base.Interrupted || ffcRes.Interrupted {
		fmt.Fprintf(os.Stderr, "ffcsim: interrupted: partial results over %d/%d base and %d/%d FFC intervals\n",
			base.Intervals, *intervals, ffcRes.Intervals, *intervals)
	}

	tab := metrics.NewTable("metric", "non-FFC", "FFC", "ratio")
	row := func(name string, b, f float64) {
		tab.Row(name, b, f, metrics.SafeRatio(f, b, 1))
	}
	row("delivered (unit·s)", base.Total.DeliveredBytes(), ffcRes.Total.DeliveredBytes())
	row("lost (unit·s)", base.Total.LossBytes, ffcRes.Total.LossBytes)
	row("  blackhole", base.Total.BlackholeBytes, ffcRes.Total.BlackholeBytes)
	row("  congestion", base.Total.CongestionBytes, ffcRes.Total.CongestionBytes)
	tab.Row("max-oversub p50 (%)", 100*base.MaxOversub.Percentile(50), 100*ffcRes.MaxOversub.Percentile(50), "")
	tab.Row("max-oversub p99 (%)", 100*base.MaxOversub.Percentile(99), 100*ffcRes.MaxOversub.Percentile(99), "")
	tab.Row("controller reactions", base.Reactions, ffcRes.Reactions, "")
	tab.Row("TE solve mean (s)", base.SolveTime.Mean(), ffcRes.SolveTime.Mean(), "")
	if *deadline > 0 || injected.Enabled() {
		tab.Row("degraded intervals", base.DegradedIntervals, ffcRes.DegradedIntervals, "")
		tab.Row("degraded max-oversub (%)", 100*base.DegradedOversub.Max(), 100*ffcRes.DegradedOversub.Max(), "")
	}
	fmt.Print(tab.String())

	if *timeline {
		fmt.Println()
		tt := metrics.NewTable("interval", "demand", "granted", "lost", "link-faults", "switch-faults", "stale", "max-oversub-%", "degraded")
		for i, rec := range ffcRes.Timeline {
			tt.Row(i, rec.Demand, rec.Granted, rec.Lost, rec.LinkFaults, rec.SwitchFaults, rec.StaleSwitches, 100*rec.MaxOversub, rec.Degraded)
		}
		fmt.Print(tt.String())
	}

	if *multi {
		fmt.Println()
		ct := metrics.NewTable("class", "delivered-ratio", "loss-ratio", "ffc-loss-share")
		for _, p := range []demand.Priority{demand.High, demand.Med, demand.Low} {
			ct.Row(p.String(),
				metrics.SafeRatio(ffcRes.ByPriority[p].DeliveredBytes(), base.ByPriority[p].DeliveredBytes(), 1),
				metrics.SafeRatio(ffcRes.ByPriority[p].LossBytes, base.ByPriority[p].LossBytes, 0),
				metrics.SafeRatio(ffcRes.ByPriority[p].LossBytes, ffcRes.Total.LossBytes, 0))
		}
		fmt.Print(ct.String())
	}

	if *stats {
		fmt.Fprintln(os.Stderr)
		obs.Default().WriteText(os.Stderr)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ffcsim: "+format+"\n", args...)
	os.Exit(1)
}

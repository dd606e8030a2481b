// Command ffcbench regenerates the paper's tables and figures (see
// DESIGN.md's per-experiment index). Examples:
//
//	ffcbench -exp all
//	ffcbench -exp fig13,fig14 -net lnet -sites 10 -intervals 48
//	ffcbench -exp table2 -net both
//	ffcbench -exp table2 -net snet -stats          # + solver counters and spans
//	ffcbench -exp all -debug-addr localhost:6060   # live pprof/expvar
//
// Output is text: aligned tables for bar/line figures and "x y" series for
// CDFs, labelled with the corresponding paper artifact. With -stats the
// run enables internal/obs and dumps its counters and spans at the end.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ffc/internal/experiments"
	"ffc/internal/faults"
	"ffc/internal/obs"
)

var allExperiments = []string{
	"fig1a", "fig1b", "fig2to5", "fig6", "fig11", "fig12", "table2",
	"fig13", "fig14", "fig15", "fig16", "ablation_encoding", "ablation_tunnels", "ablation_rescaling",
}

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiment ids, or 'all' ("+strings.Join(allExperiments, ",")+")")
		netKind    = flag.String("net", "lnet", "network: lnet, snet, or both")
		sites      = flag.Int("sites", 8, "L-Net sites (the real L-Net is ~50; larger is slower)")
		intervals  = flag.Int("intervals", 24, "TE intervals in the demand series")
		seed       = flag.Int64("seed", 1, "random seed")
		tunnels    = flag.Int("tunnels", 6, "tunnels per flow")
		quick      = flag.Bool("quick", false, "shrink everything for a fast smoke run")
		stats      = flag.Bool("stats", false, "enable instrumentation and print solver counters and a span latency breakdown at the end")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address (e.g. localhost:6060)")
		deadline   = flag.Duration("solver-deadline", 0, "per-interval TE solve budget across the harness; a missed solve degrades the interval to the last-good plan (0 = unbounded)")
		injectSpec = flag.String("inject-solver", "", "inject controller faults into every sim, e.g. timeout=0.1,crash=0.01,stale=0.02")
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

	if *quick {
		*sites, *intervals, *tunnels = 6, 6, 4
	}

	want := map[string]bool{}
	if *exp == "all" {
		for _, e := range allExperiments {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			e = strings.TrimSpace(e)
			if e != "" {
				want[e] = true
			}
		}
	}
	for e := range want {
		if !contains(allExperiments, e) {
			fatalf("unknown experiment %q; known: %s", e, strings.Join(allExperiments, ", "))
		}
	}

	var envs []*experiments.Env
	needEnv := false
	for e := range want {
		if e != "fig6" && e != "fig11" && e != "fig2to5" {
			needEnv = true
		}
	}
	// SIGINT/SIGTERM cancel the sim-backed experiments through the solver
	// budget path; interrupted figures report partial aggregates and the
	// run proceeds to whatever output it can still write.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if needEnv {
		cfg := experiments.EnvConfig{Sites: *sites, Intervals: *intervals, Seed: *seed, TunnelsPerFlow: *tunnels, SolverDeadline: *deadline, SolverFaults: injected, Ctx: ctx}
		if *netKind == "lnet" || *netKind == "both" {
			fmt.Fprintf(os.Stderr, "building L-Net environment (%d sites, %d intervals)...\n", *sites, *intervals)
			env, err := experiments.NewLNet(cfg)
			if err != nil {
				fatalf("%v", err)
			}
			envs = append(envs, env)
		}
		if *netKind == "snet" || *netKind == "both" {
			fmt.Fprintln(os.Stderr, "building S-Net environment...")
			env, err := experiments.NewSNet(cfg)
			if err != nil {
				fatalf("%v", err)
			}
			envs = append(envs, env)
		}
		if len(envs) == 0 {
			fatalf("unknown -net %q (want lnet, snet, or both)", *netKind)
		}
	}

	out := os.Stdout
	run := func(id string, fn func() error) {
		if !want[id] {
			return
		}
		t0 := time.Now()
		fmt.Fprintf(os.Stderr, "running %s...\n", id)
		if err := fn(); err != nil {
			fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(os.Stderr, "  %s done in %v\n", id, time.Since(t0).Round(time.Millisecond))
		fmt.Fprintln(out)
	}

	start := time.Now()
	run("fig2to5", func() error { return experiments.Fig2to5(out) })
	run("fig6", func() error { experiments.Fig6(out); return nil })
	run("fig11", func() error { return experiments.Fig11(out) })
	for _, env := range envs {
		run("fig1a", func() error { _, err := experiments.Fig1a(env, out); return err })
		run("fig1b", func() error { _, err := experiments.Fig1b(env, out); return err })
		run("fig12", func() error { _, err := experiments.Fig12(env, out); return err })
		run("table2", func() error { _, err := experiments.Table2(env, out); return err })
		run("fig13", func() error { _, err := experiments.Fig13(env, out, nil, nil); return err })
		run("fig14", func() error {
			_, err := experiments.Fig14(env, out, faults.Realistic())
			return err
		})
		run("fig15", func() error { _, err := experiments.Fig15(env, out, nil, 0); return err })
		run("fig16", func() error { _, err := experiments.Fig16(env, out, 0); return err })
		run("ablation_encoding", func() error { _, err := experiments.AblationEncoding(env, out); return err })
		run("ablation_tunnels", func() error { _, err := experiments.AblationTunnels(env, out); return err })
		run("ablation_rescaling", func() error { _, err := experiments.AblationRescaling(env, out); return err })
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "interrupted after %v: figure aggregates above cover only the completed intervals\n", time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Fprintf(os.Stderr, "all done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if *stats {
		fmt.Fprintln(os.Stderr, "--- instrumentation dump (counters, spans) ---")
		obs.Default().WriteText(os.Stderr)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ffcbench: "+format+"\n", args...)
	os.Exit(1)
}

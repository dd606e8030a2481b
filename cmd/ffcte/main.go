// Command ffcte is a one-shot FFC TE solver: it reads a topology and a
// demands file (JSON), computes a traffic distribution at the requested
// protection level, and writes the configuration as JSON.
//
//	ffcte -topo net.json -demands d.json -kc 2 -ke 1 -kv 0 > state.json
//
// With -prev it computes relative to an existing configuration (required
// for kc > 0; the previous state file must have been produced by ffcte on
// the same topology). With -verify it certifies the result with
// internal/check, enumerating every fault combination at the protection
// level, and exits 1 with the certificate's summary if any overloads a link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

func main() {
	var (
		topoPath   = flag.String("topo", "", "topology JSON (required; see cmd/topogen)")
		demPath    = flag.String("demands", "", "demands JSON (required)")
		prevPath   = flag.String("prev", "", "previous state JSON (for kc > 0)")
		kc         = flag.Int("kc", 0, "control-plane protection level")
		ke         = flag.Int("ke", 0, "link-failure protection level")
		kv         = flag.Int("kv", 0, "switch-failure protection level")
		tunnels    = flag.Int("tunnels", 6, "tunnels per flow")
		p          = flag.Int("p", 1, "max tunnels of a flow per physical link")
		q          = flag.Int("q", 3, "max tunnels of a flow per intermediate switch")
		objective  = flag.String("objective", "throughput", "objective: throughput, mlu, maxmin")
		verifyFlag = flag.Bool("verify", false, "exhaustively verify the guarantee (small networks)")
		statsFlag  = flag.Bool("stats", false, "print the solver/verifier counter and latency breakdown to stderr")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address")
		deadline   = flag.Duration("solver-deadline", 0, "solve budget; on a budget hit the best feasible configuration found so far is emitted with a warning (0 = unbounded)")
		injectKind = flag.String("inject-solver", "", "inject a controller fault for testing: timeout (start with the budget expired) or crash (panic inside the simplex)")
	)
	flag.Parse()
	if *topoPath == "" || *demPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *statsFlag {
		obs.Enable()
	}
	if *debugAddr != "" {
		addr, err := obs.Serve(*debugAddr)
		if err != nil {
			fatalf("debug server: %v", err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/obs (pprof, vars)\n", addr)
	}

	var net topology.Network
	mustReadJSON(*topoPath, &net)
	demBytes, err := os.ReadFile(*demPath)
	if err != nil {
		fatalf("%v", err)
	}
	demands, err := wire.ParseDemands(&net, demBytes)
	if err != nil {
		fatalf("%v", err)
	}

	var flows []tunnel.Flow
	for _, f := range demands.Flows() {
		flows = append(flows, f)
	}
	set := tunnel.Layout(&net, flows, tunnel.LayoutConfig{TunnelsPerFlow: *tunnels, P: *p, Q: *q})

	opts := core.Options{MiceFraction: 0.01}
	if *objective == "mlu" {
		opts.Objective = core.MinMLU
	}
	solver := core.NewSolver(&net, set, opts)

	prev := core.NewState()
	if *prevPath != "" {
		blob, err := os.ReadFile(*prevPath)
		if err != nil {
			fatalf("%v", err)
		}
		prev, err = wire.ParseState(&net, set, blob)
		if err != nil {
			fatalf("prev state: %v", err)
		}
	}

	prot := core.Protection{Kc: *kc, Ke: *ke, Kv: *kv}
	in := core.Input{Demands: demands, Prot: prot, Prev: prev}
	in.Budget.Deadline = *deadline
	switch *injectKind {
	case "":
	case "timeout":
		in.Budget.Deadline = -time.Nanosecond // expired before the first pivot
	case "crash":
		in.Budget.Hook = func(int) { panic("ffcte: injected solver crash") }
	default:
		fatalf("unknown -inject-solver %q (want timeout or crash)", *injectKind)
	}
	var st *core.State
	var stats *core.Stats
	if *objective == "maxmin" {
		res, merr := solver.SolveMaxMin(in, 2, 0)
		if merr != nil {
			fatalf("solve: %v", merr)
		}
		st, stats = res.State, &res.TotalStats
	} else {
		st, stats, err = solver.Solve(in)
		if err != nil {
			// A budget hit with a feasible best-so-far point still yields a
			// usable (congestion-free, just suboptimal) configuration: emit
			// it and warn, rather than leaving the caller with nothing.
			if st != nil && stats != nil && stats.Outcome == core.OutcomeBudgetHit {
				fmt.Fprintf(os.Stderr, "ffcte: warning: %v; emitting the best feasible configuration found\n", err)
			} else {
				fatalf("solve: %v (outcome %v)", err, stats.Outcome)
			}
		}
	}

	if *verifyFlag {
		cert, err := check.Certify(&net, set, st, prev, check.Params{Prot: prot, RateLimiter: opts.RateLimiter, Mode: check.Exact})
		if err != nil {
			fatalf("verify: %v", err)
		}
		if !cert.OK {
			fatalf("verification failed: %s", cert.Summary())
		}
		fmt.Fprintf(os.Stderr, "verification passed: congestion-free under all fault cases at %v (%s)\n", prot, cert.Summary())
	}

	fmt.Fprintf(os.Stderr, "solved: %d vars, %d constraints, %d iterations, %v; throughput %.4g/%.4g\n",
		stats.Vars, stats.Constraints, stats.Iters, stats.SolveTime.Round(0), st.TotalRate(), demands.Total())
	if *statsFlag {
		fmt.Fprintf(os.Stderr, "solver: build %v, solve %v; dual %d + phase1 %d of %d iters, %d reinversions, %d devex resets, %d bound flips, basis nnz %d\n",
			stats.BuildTime.Round(0), stats.SolveTime.Round(0),
			stats.LP.DualIters, stats.LP.Phase1Iters, stats.LP.Iters, stats.LP.Reinversions, stats.LP.DevexResets,
			stats.LP.BoundFlips, stats.LP.BasisNnz)
		fmt.Fprintln(os.Stderr)
		obs.Default().WriteText(os.Stderr)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(wire.EncodeState(&net, set, demands, st)); err != nil {
		fatalf("%v", err)
	}
}

func mustReadJSON(path string, v interface{}) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		fatalf("parsing %s: %v", path, err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ffcte: "+format+"\n", args...)
	os.Exit(1)
}

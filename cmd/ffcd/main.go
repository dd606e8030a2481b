// Command ffcd is the long-running FFC TE controller daemon: it loads a
// topology, solves continuously (warm-started across intervals), and
// serves the installed plan over a newline-delimited-JSON TCP protocol.
// Queries are answered from an immutable plan snapshot behind an atomic
// pointer and never wait for a solve; streamed updates (demand changes,
// link/switch up/down, protection-level changes) kick an immediate
// recompute. Each recompute runs the control step the simulator runs
// (core.Session.Step), so solver trouble degrades to the last-good plan
// exactly as in ffcsim, with the reason in the plan metadata and zero
// protection reported for the fallback.
//
// With -certify, every plan is certified by internal/check between solve
// and publish, so only certified plans are served: a plan that fails
// degrades with reason "uncertified" to the last published plan, capped at
// current demand and certified at zero protection.
//
//	ffcd -topo net.json -demands d.json -kc 2 -ke 1 -listen 127.0.0.1:7070 \
//	     -snapshot /var/run/ffcd.snap
//
// With -snapshot, the installed plan is persisted periodically and
// restored at boot: a restarted daemon answers its first query from the
// snapshot while its first solve still runs. SIGINT/SIGTERM drain
// gracefully — in-flight queries get their replies, the in-flight solve is
// cancelled, and a final snapshot is written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/ctrl"
	"ffc/internal/faults"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

func main() {
	var (
		topoPath   = flag.String("topo", "", "topology JSON (required; see cmd/topogen)")
		demPath    = flag.String("demands", "", "initial demands JSON (optional; updates can stream in later)")
		listen     = flag.String("listen", "127.0.0.1:7070", "TCP listen address for the NDJSON protocol (use :0 for an ephemeral port)")
		kc         = flag.Int("kc", 0, "control-plane protection level")
		ke         = flag.Int("ke", 0, "link-failure protection level")
		kv         = flag.Int("kv", 0, "switch-failure protection level")
		tunnels    = flag.Int("tunnels", 6, "tunnels per flow")
		p          = flag.Int("p", 1, "max tunnels of a flow per physical link")
		q          = flag.Int("q", 3, "max tunnels of a flow per intermediate switch")
		interval   = flag.Duration("interval", 5*time.Second, "recompute period (updates additionally trigger immediate recomputes)")
		deadline   = flag.Duration("solver-deadline", 0, "per-recompute solve budget; a miss degrades to the last-good plan (0 = unbounded)")
		snapPath   = flag.String("snapshot", "", "snapshot file for crash recovery (restored at boot, written periodically and on shutdown)")
		snapEvery  = flag.Duration("snapshot-every", 10*time.Second, "minimum gap between periodic snapshot writes")
		firstDelay = flag.Duration("first-solve-delay", 0, "hold the first recompute for this long after boot (the restored snapshot serves meanwhile; used by restart tests)")
		injectSpec = flag.String("inject-solver", "", "inject controller faults per recompute, e.g. timeout=0.1,crash=0.01,stale=0.02")
		injectSeed = flag.Int64("inject-seed", 1, "fault-injection RNG seed")
		statsFlag  = flag.Bool("stats", false, "enable the obs registry (counters, latency histograms)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address")
		certify    = flag.Bool("certify", false, "certify every plan with internal/check before serving it; a failing plan is logged, counted in cert_failures and replaced by a certified degraded fallback (reason uncertified); restored snapshots certify the same way")
		tracePath  = flag.String("trace", "", "append one NDJSON trace record per installed plan (replayable offline with ffccheck -trace)")
	)
	flag.Parse()
	if *topoPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "ffcd: ", log.LstdFlags|log.Lmicroseconds)
	if *statsFlag {
		obs.Enable()
	}
	if *debugAddr != "" {
		addr, err := obs.Serve(*debugAddr)
		if err != nil {
			fatalf("debug server: %v", err)
		}
		logger.Printf("debug server on http://%s/debug/obs (pprof, vars)", addr)
	}

	var net topology.Network
	blob, err := os.ReadFile(*topoPath)
	if err != nil {
		fatalf("%v", err)
	}
	if err := json.Unmarshal(blob, &net); err != nil {
		fatalf("parsing %s: %v", *topoPath, err)
	}

	cfg := ctrl.Config{
		Net:             &net,
		Prot:            core.Protection{Kc: *kc, Ke: *ke, Kv: *kv},
		Layout:          tunnel.LayoutConfig{TunnelsPerFlow: *tunnels, P: *p, Q: *q},
		Interval:        *interval,
		SolveDeadline:   *deadline,
		SnapshotPath:    *snapPath,
		SnapshotEvery:   *snapEvery,
		FirstSolveDelay: *firstDelay,
		FaultSeed:       *injectSeed,
		Logf:            logger.Printf,
	}
	cfg.Opts = core.Options{MiceFraction: 0.01}
	cfg.Faults, err = faults.ParseSolverFaults(*injectSpec)
	if err != nil {
		fatalf("-inject-solver: %v", err)
	}
	if *certify {
		cfg.Certify = &check.Params{}
	}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatalf("-trace: %v", err)
		}
		cfg.TraceWriter = traceFile
	}
	if *demPath != "" {
		demBytes, err := os.ReadFile(*demPath)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Demands, err = wire.ParseDemands(&net, demBytes)
		if err != nil {
			fatalf("%v", err)
		}
	}

	c, err := ctrl.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	srv, err := ctrl.Serve(c, *listen)
	if err != nil {
		fatalf("%v", err)
	}
	// The listen line is machine-read by scripts (the CI soak greps it for
	// the ephemeral port); keep the "listening on " prefix stable.
	logger.Printf("listening on %s (%d switches, %d links, prot %s)",
		srv.Addr(), len(net.Switches), len(net.Links), cfg.Prot)
	c.Start()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	logger.Printf("caught %v: draining (in-flight replies finish, solve cancels, final snapshot)", sig)
	signal.Stop(sigCh) // a second signal kills the process the default way
	srv.Close()
	c.Stop()
	if traceFile != nil {
		traceFile.Close()
	}
	s := c.Stats()
	logger.Printf("drained: %d plans installed (%d degraded), %d updates, %d queries served",
		s.PlansInstalled, s.DegradedInstalls, s.UpdatesApplied, s.QueriesServed)
	if *certify {
		logger.Printf("certification: %d runs, %d failures, %.2f ms mean (last: %d cases)",
			s.CertRuns, s.CertFailures, s.CertMsMean, s.CertCasesLast)
		if s.CertFailures > 0 {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ffcd: "+format+"\n", args...)
	os.Exit(1)
}

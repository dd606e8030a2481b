// Command ffcprop runs the randomized metamorphic property harness from
// internal/prop outside the go-test budget: it generates seed-driven
// end-to-end scenarios (topology × demands × faults × protection × solve
// path), runs each through build → solve → verify → certify, and checks
// the paper's invariants (protection monotonicity, FFC ≤ TE, scale and
// relabeling invariance, certification, degraded fallback). On a violation
// it shrinks the scenario to a minimal failing case and writes a
// self-contained JSON repro.
//
// Sweep 100 scenarios starting at seed 1:
//
//	ffcprop -seed 1 -n 100
//
// Soak for an hour, saving any shrunk repro next to the logs:
//
//	ffcprop -seed $RANDOM -duration 1h -out repros/
//
// Replay a saved repro (also replayable via go test, see internal/prop):
//
//	ffcprop -repro repros/seed-123.json
//
// One NDJSON result line per scenario goes to stdout. Exit status: 0 when
// every scenario holds (or a -repro no longer reproduces), 1 when any
// invariant is violated (or a -repro still reproduces), 2 on usage or
// input errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ffc/internal/prop"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ffcprop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed       = fs.Int64("seed", 1, "first scenario seed; scenario i uses seed+i")
		n          = fs.Int("n", 25, "number of scenarios to run (ignored with -duration or -repro)")
		duration   = fs.Duration("duration", 0, "run scenarios until this much time has elapsed instead of a fixed -n")
		pathFlag   = fs.String("path", "", "restrict scenarios to one solve path: scratch, template (default: as generated)")
		reproPath  = fs.String("repro", "", "replay one saved repro file instead of generating scenarios")
		outDir     = fs.String("out", "", "directory for shrunk repro files (default: current directory)")
		doShrink   = fs.Bool("shrink", true, "shrink failing scenarios before writing the repro")
		shrinkRuns = fs.Int("shrink-runs", 0, "cap on shrink candidate replays (0 = default)")
		verbose    = fs.Bool("v", false, "log every scenario to stderr, not just failures")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ffcprop: unexpected arguments %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	if *reproPath != "" {
		return replay(*reproPath, stdout, stderr)
	}

	if *pathFlag != "" {
		switch *pathFlag {
		case prop.PathScratch, prop.PathTemplate:
		default:
			fmt.Fprintf(stderr, "ffcprop: unknown -path %q\n", *pathFlag)
			return 2
		}
	}

	out := bufio.NewWriter(stdout)
	defer out.Flush()

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	var ran, failed int
	for i := 0; ; i++ {
		if deadline.IsZero() {
			if i >= *n {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		sc := prop.Generate(*seed + int64(i))
		if *pathFlag != "" {
			sc.Path = *pathFlag
			sc.Name = fmt.Sprintf("%s-%s", sc.Name, *pathFlag)
		}
		res, err := prop.Run(sc)
		if err != nil {
			fmt.Fprintf(stderr, "ffcprop: %s: %v\n", sc.Name, err)
			return 2
		}
		ran++
		emit(out, result{Name: sc.Name, Seed: sc.Seed, Kind: sc.Kind, Path: sc.Path,
			Rate: res.Rate, Checked: res.Checked, Failures: res.Failures})
		if *verbose || !res.OK() {
			fmt.Fprintf(stderr, "ffcprop: %-10s %-8s %-8s rate=%.4g %s\n",
				sc.Name, sc.Kind, sc.Path, res.Rate, statusOf(res))
		}
		if res.OK() {
			continue
		}
		failed++
		failure := res.FirstFailure()
		rep := &prop.Repro{Failure: failure, Scenario: sc}
		if *doShrink {
			shrunk, stats := prop.Shrink(sc, failure, *shrinkRuns)
			fmt.Fprintf(stderr, "ffcprop: %s: shrunk to %d switches / %d flows (%d replays, %d accepted)\n",
				sc.Name, shrunk.Topo.NumSwitches(), len(shrunk.Demands), stats.Attempts, stats.Accepted)
			rep = &prop.Repro{Failure: failure, Shrink: stats, Scenario: shrunk}
		}
		file := filepath.Join(*outDir, fmt.Sprintf("%s-repro.json", sc.Name))
		if err := prop.WriteRepro(file, rep); err != nil {
			fmt.Fprintf(stderr, "ffcprop: writing %s: %v\n", file, err)
			return 2
		}
		fmt.Fprintf(stderr, "ffcprop: %s: %s\n", sc.Name, failure)
		fmt.Fprintf(stderr, "ffcprop: repro written to %s\n", file)
	}
	out.Flush()
	fmt.Fprintf(stderr, "ffcprop: %d scenario(s) run, %d failed\n", ran, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// replay re-runs one saved repro and reports whether it still fails with
// the recorded invariant.
func replay(path string, stdout, stderr io.Writer) int {
	rep, err := prop.ReadRepro(path)
	if err != nil {
		fmt.Fprintf(stderr, "ffcprop: %v\n", err)
		return 2
	}
	res, reproduced, err := rep.Replay()
	if err != nil {
		fmt.Fprintf(stderr, "ffcprop: %s: %v\n", path, err)
		return 2
	}
	out := bufio.NewWriter(stdout)
	sc := rep.Scenario
	emit(out, result{Name: sc.Name, Seed: sc.Seed, Kind: sc.Kind, Path: sc.Path,
		Rate: res.Rate, Checked: res.Checked, Failures: res.Failures})
	out.Flush()
	if reproduced {
		fmt.Fprintf(stderr, "ffcprop: %s reproduces: %s\n", path, res.FirstFailure())
		return 1
	}
	fmt.Fprintf(stderr, "ffcprop: %s no longer reproduces (recorded: %s)\n", path, rep.Failure)
	return 0
}

// result is one NDJSON output line.
type result struct {
	Name     string         `json:"name"`
	Seed     int64          `json:"seed"`
	Kind     string         `json:"kind"`
	Path     string         `json:"path"`
	Rate     float64        `json:"rate"`
	Checked  []string       `json:"checked"`
	Failures []prop.Failure `json:"failures,omitempty"`
}

func statusOf(res *prop.Result) string {
	if res.OK() {
		return "ok"
	}
	return "FAIL " + res.FirstFailure().Invariant
}

func emit(out *bufio.Writer, r result) {
	blob, err := json.Marshal(r)
	if err != nil {
		panic(err) // result is always marshalable
	}
	out.Write(blob)
	out.WriteByte('\n')
}

// Command ffccheck independently certifies FFC TE plans: it rebuilds the
// tunnel set purely from the paths recorded in a plan file or trace (no
// layout flags to match against the producing process) and verifies the
// congestion-freedom guarantees with internal/check, the certifier that
// shares no code with the LP formulation.
//
// Certify one plan file (as written by ffcte, or a get_plan reply's state):
//
//	ffccheck -topo net.json -plan state.json -kc 2 -ke 1
//
// Replay an interval trace recorded by ffcsim -trace or ffcd -trace,
// chaining each class's previous state for control-plane certification:
//
//	ffccheck -topo net.json -trace run.trace
//
// One NDJSON verdict line per certified plan goes to stdout. Exit status:
// 0 when every certificate is OK, 1 when any plan fails certification,
// 2 on usage or input errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/wire"
)

func main() {
	var (
		topoPath  = flag.String("topo", "", "topology JSON (required; see cmd/topogen)")
		planPath  = flag.String("plan", "", "certify one plan file (wire state JSON)")
		prevPath  = flag.String("prev", "", "previously installed plan for control-plane (kc) certification; defaults to the plan itself (no stale delta)")
		tracePath = flag.String("trace", "", "replay an NDJSON interval trace (ffcsim/ffcd -trace)")
		kc        = flag.Int("kc", 0, "control-plane protection to certify (-plan mode; -trace takes levels from each record)")
		ke        = flag.Int("ke", 0, "link-failure protection to certify (-plan mode)")
		kv        = flag.Int("kv", 0, "switch-failure protection to certify (-plan mode)")
		limiters  = flag.String("limiters", "synced", "rate-limiter fault model: synced, ordered, independent")
		failFast  = flag.Bool("fail-fast", false, "stop each certification at the first violating case")
		quiet     = flag.Bool("quiet", false, "suppress per-plan verdict lines; only the summary and exit status")
	)
	flag.Parse()
	if *topoPath == "" || (*planPath == "") == (*tracePath == "") {
		fmt.Fprintln(os.Stderr, "ffccheck: need -topo and exactly one of -plan / -trace")
		flag.Usage()
		os.Exit(2)
	}

	var rl core.RateLimiterMode
	switch *limiters {
	case "synced":
		rl = core.LimitersSynced
	case "ordered":
		rl = core.LimitersOrdered
	case "independent":
		rl = core.LimitersIndependent
	default:
		fatalf("unknown -limiters %q", *limiters)
	}
	base := check.Params{RateLimiter: rl, FailFast: *failFast}

	var net topology.Network
	blob, err := os.ReadFile(*topoPath)
	if err != nil {
		fatalf("%v", err)
	}
	if err := json.Unmarshal(blob, &net); err != nil {
		fatalf("parsing %s: %v", *topoPath, err)
	}
	if err := net.Validate(); err != nil {
		fatalf("%s: %v", *topoPath, err)
	}

	var checked, failed int
	if *planPath != "" {
		base.Prot = core.Protection{Kc: *kc, Ke: *ke, Kv: *kv}
		ok := certifyPlanFile(&net, *planPath, *prevPath, base, stdout, *quiet)
		checked = 1
		if !ok {
			failed = 1
		}
	} else {
		checked, failed = replayTrace(&net, *tracePath, base, stdout, *quiet, true)
	}
	stdout.Flush()
	fmt.Fprintf(os.Stderr, "ffccheck: %d plan(s) certified, %d failed\n", checked, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// verdict is one output line: the record's identity plus its certificate.
type verdict struct {
	Seq   int64  `json:"seq,omitempty"`
	Class string `json:"class,omitempty"`
	*check.Certificate
}

// certifyPlanFile certifies one wire state file at the protection level in
// params.
func certifyPlanFile(net *topology.Network, planPath, prevPath string, params check.Params, out *bufio.Writer, quiet bool) bool {
	sf := readStateFile(planPath)
	set, err := wire.TunnelSetFromState(net, sf)
	if err != nil {
		fatalf("%s: %v", planPath, err)
	}
	st, err := wire.ResolveState(net, set, sf)
	if err != nil {
		fatalf("%s: %v", planPath, err)
	}
	prev := st // no previous plan: every ingress is already on this one
	if prevPath != "" {
		// The previous plan may use tunnels the current one dropped;
		// resolving it against the current set keeps the surviving paths
		// (exactly what a stale ingress can still send on).
		prev, err = wire.ResolveState(net, set, readStateFile(prevPath))
		if err != nil {
			fatalf("%s: %v", prevPath, err)
		}
	}
	cert, err := check.Certify(net, set, st, prev, params)
	if err != nil {
		fatalf("%s: %v", planPath, err)
	}
	emit(out, verdict{Certificate: cert}, quiet)
	return cert.OK
}

// replayTrace certifies every record of an NDJSON trace. Control-plane
// certification chains the previous record's state per class; degraded
// records (last-good fallbacks) certify at zero protection. With probe,
// each certification is seeded with the class's previous verdict's worst
// case when that verdict was issued at the same ke and kv over the same
// down sets (check.ProbeFrom); the verdicts are the same either way.
func replayTrace(net *topology.Network, path string, base check.Params, out *bufio.Writer, quiet, probe bool) (checked, failed int) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()

	// last is a class's previous record and verdict.
	type last struct {
		state        *wire.StateFile
		cert         *check.Certificate
		downLinks    map[topology.LinkID]bool
		downSwitches map[topology.SwitchID]bool
	}
	prevByClass := map[string]last{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20) // a large net's records are long lines
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := wire.ParseTraceRecord(line)
		if err != nil {
			fatalf("%s:%d: %v", path, lineNo, err)
		}
		set, err := wire.TunnelSetFromState(net, &rec.State)
		if err != nil {
			fatalf("%s:%d: %v", path, lineNo, err)
		}
		st, err := wire.ResolveState(net, set, &rec.State)
		if err != nil {
			fatalf("%s:%d: %v", path, lineNo, err)
		}
		prev := st
		before, seen := prevByClass[rec.Class]
		if seen {
			// Resolve the previous record against this record's set: a
			// stale ingress can only keep sending on tunnels that still
			// exist.
			prev, err = wire.ResolveState(net, set, before.state)
			if err != nil {
				fatalf("%s:%d: resolving previous state: %v", path, lineNo, err)
			}
		}
		params := base
		params.Prot = rec.CertifiedProt()
		params.DownLinks, params.DownSwitches, err = wire.ResolveDownSets(net, rec.DownLinks, rec.DownSwitches)
		if err != nil {
			fatalf("%s:%d: %v", path, lineNo, err)
		}
		if probe && seen {
			params.Probe = check.ProbeFrom(before.cert, before.downLinks, before.downSwitches, params)
		}
		cert, err := check.Certify(net, set, st, prev, params)
		if err != nil {
			fatalf("%s:%d: %v", path, lineNo, err)
		}
		checked++
		if !cert.OK {
			failed++
		}
		emit(out, verdict{Seq: rec.Seq, Class: rec.Class, Certificate: cert}, quiet && cert.OK)
		prevByClass[rec.Class] = last{&rec.State, cert, params.DownLinks, params.DownSwitches}
	}
	if err := sc.Err(); err != nil {
		fatalf("%s: %v", path, err)
	}
	return checked, failed
}

func readStateFile(path string) *wire.StateFile {
	blob, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var sf wire.StateFile
	if err := json.Unmarshal(blob, &sf); err != nil {
		fatalf("parsing %s: %v", path, err)
	}
	return &sf
}

func emit(out *bufio.Writer, v verdict, quiet bool) {
	if quiet {
		return
	}
	blob, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding verdict: %v", err)
	}
	out.Write(blob)
	out.WriteByte('\n')
}

// stdout buffers the verdict lines. Every exit flushes it, so the verdicts
// certified before an input error still reach the caller.
var stdout = bufio.NewWriter(os.Stdout)

func fatalf(format string, args ...interface{}) {
	stdout.Flush()
	fmt.Fprintf(os.Stderr, "ffccheck: "+format+"\n", args...)
	os.Exit(2)
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

// TestFailFastAcrossCores certifies an L-Net plan solved for one link
// failure at -ke 2 -kv 1 with -fail-fast, at GOMAXPROCS 1, 2 and 4: the
// process must exit 1 with the same verdict line each time — the first
// violating case in enumeration order, cases_checked = cases_covered = its
// index + 1 — whatever the core count.
func TestFailFastAcrossCores(t *testing.T) {
	dir, bin := buildBinary(t)

	net := topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
	dem := demand.Generate(net, demand.Config{Intervals: 1}, rand.New(rand.NewSource(8)))[0]
	for f := range dem {
		dem[f] *= 40
	}
	set := tunnel.Layout(net, dem.Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
	st, _, err := core.NewSolver(net, set, core.Options{Encoding: core.Compact}).Solve(
		core.Input{Demands: dem, Prot: core.Protection{Ke: 1}})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, v any) string {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	topo := write("net.json", net)
	plan := write("plan.json", wire.EncodeState(net, set, dem, st))

	run := func(procs string, extra ...string) check.Certificate {
		t.Helper()
		args := append([]string{"-topo", topo, "-plan", plan, "-ke", "2", "-kv", "1"}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("GOMAXPROCS=%s %v: want exit 1, got %v\n%s", procs, extra, err, stderr.String())
		}
		var cert check.Certificate
		if err := json.Unmarshal(stdout.Bytes(), &cert); err != nil {
			t.Fatalf("verdict line %q: %v", stdout.String(), err)
		}
		cert.Elapsed = 0
		return cert
	}

	full := run("1")
	want := run("1", "-fail-fast")
	if want.OK || want.Violation == nil {
		t.Fatalf("fail-fast run certified: %+v", want)
	}
	if want.CasesChecked != want.CasesCovered || want.CasesChecked <= 1 || want.CasesChecked >= full.CasesChecked {
		t.Fatalf("fail-fast run checked %d, covered %d; the full run checked %d",
			want.CasesChecked, want.CasesCovered, full.CasesChecked)
	}
	wantLine, _ := json.Marshal(want)
	for _, procs := range []string{"2", "4"} {
		got, _ := json.Marshal(run(procs, "-fail-fast"))
		if !bytes.Equal(got, wantLine) {
			t.Fatalf("GOMAXPROCS=%s verdict differs from the serial run's:\n%s\n%s", procs, got, wantLine)
		}
	}
}

// buildBinary builds ffccheck into a fresh temporary directory and returns
// both.
func buildBinary(t *testing.T) (dir, bin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the ffccheck binary; skipped with -short")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "ffccheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}

// TestBadTraceRecordKeepsEarlierVerdicts replays a trace whose first two
// records are good plans and whose third line is garbage: the run must exit
// 2 on the bad line and still print the two verdicts certified before it.
func TestBadTraceRecordKeepsEarlierVerdicts(t *testing.T) {
	dir, bin := buildBinary(t)
	net := topology.Example4()
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	dem := demand.Matrix{{Src: s2, Dst: s4}: 6, {Src: s3, Dst: s4}: 4}
	set := tunnel.Layout(net, dem.Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 2, P: 1, Q: 3})
	st, _, err := core.NewSolver(net, set, core.Options{}).Solve(core.Input{Demands: dem, Prot: core.Protection{Ke: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	for seq := int64(1); seq <= 2; seq++ {
		rec := &wire.TraceRecord{Seq: seq, Ke: 1, State: wire.EncodeState(net, set, dem, st)}
		if err := wire.WriteTraceRecord(&trace, rec); err != nil {
			t.Fatal(err)
		}
	}
	trace.WriteString("not a trace record\n")
	topoBlob, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	topo, tracePath := filepath.Join(dir, "net.json"), filepath.Join(dir, "run.trace")
	if err := os.WriteFile(topo, topoBlob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-topo", topo, "-trace", tracePath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit 2 on the bad record, got %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want the 2 verdicts certified before the bad record, got %d bytes:\n%s", stdout.Len(), stdout.String())
	}
	for i, line := range lines {
		var v verdict
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("verdict %d %q: %v", i+1, line, err)
		}
		if v.Seq != int64(i+1) || v.Certificate == nil || !v.OK {
			t.Fatalf("verdict %d: %s", i+1, line)
		}
	}
}

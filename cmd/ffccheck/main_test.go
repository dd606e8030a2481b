package main

import (
	"bufio"
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
	"ffc/internal/obs"
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

// TestTraceProbeKeepsVerdicts replays a multi-record, two-class trace of
// L-Net plans at (0,2,1) — demand redraws, a link going down, drift while
// it is down, and a class whose second plan violates — with and without
// seeding each certification from the class's previous verdict: the
// verdict lines must be byte-identical (wall clock aside), with three
// certifications probed — the redraw, the drift while the link is down and
// the violating plan — and none without.
func TestTraceProbeKeepsVerdicts(t *testing.T) {
	net := topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
	series := demand.Generate(net, demand.Config{Intervals: 4}, rand.New(rand.NewSource(8))).Scale(40)
	set := tunnel.Layout(net, series.Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
	prot := core.Protection{Ke: 2, Kv: 1}
	se := core.NewSolver(net, set, core.Options{}).NewSession()
	loaded := net.Links[0].ID
	down := map[topology.LinkID]bool{}
	var trace bytes.Buffer
	prev := core.NewState()
	for i, step := range []struct {
		class string
		dem   demand.Matrix
		down  bool
		bump  float64
	}{
		{"a", series[0], false, 1},
		{"a", series[1], false, 1},
		{"a", series[1], true, 1},
		{"a", series[2], true, 1},
		{"b", series[3], false, 1},
		{"b", series[3], false, 2},
	} {
		dl := map[topology.LinkID]bool{}
		if step.down {
			dl = down
		}
		st, _, err := se.Solve(core.Input{Demands: step.dem, Prot: prot, Prev: prev, DownLinks: dl})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i == 1 {
			// Fail the most loaded physical link from the next step on.
			loads := st.LinkLoads(set)
			for _, l := range net.Links {
				if loads[l.ID] > loads[loaded] {
					loaded = l.ID
				}
			}
			down[net.Physical(loaded)] = true
		}
		prev = st
		rec := core.NewState()
		for f, r := range st.Rate {
			rec.Rate[f], rec.Alloc[f] = r*step.bump, st.Alloc[f]
		}
		links, sws := wire.NamedDownSets(net, dl, nil)
		tr := &wire.TraceRecord{Seq: int64(i + 1), Class: step.class, Kc: prot.Kc, Ke: prot.Ke, Kv: prot.Kv,
			DownLinks: links, DownSwitches: sws, State: wire.EncodeState(net, set, step.dem, rec)}
		if err := wire.WriteTraceRecord(&trace, tr); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	probed := obs.Default().Counter("check.probed")
	replay := func(probe bool) ([]string, int64) {
		var buf bytes.Buffer
		out := bufio.NewWriter(&buf)
		probed0 := probed.Value()
		checked, _ := replayTrace(net, path, check.Params{}, out, false, probe)
		out.Flush()
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if checked != 6 || len(lines) != 6 {
			t.Fatalf("probe %v: %d plans checked, %d verdict lines; want 6", probe, checked, len(lines))
		}
		for i, line := range lines {
			var v map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				t.Fatalf("verdict %q: %v", line, err)
			}
			if string(v["elapsed_ns"]) == "" {
				t.Fatalf("verdict %q has no elapsed_ns", line)
			}
			v["elapsed_ns"] = json.RawMessage("0")
			blob, _ := json.Marshal(v)
			lines[i] = string(blob)
		}
		return lines, probed.Value() - probed0
	}
	with, probedWith := replay(true)
	without, probedWithout := replay(false)
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("verdict %d differs with the probe:\n%s\n%s", i+1, with[i], without[i])
		}
	}
	if !strings.Contains(with[5], `"ok":false`) || strings.Contains(with[0], `"ok":false`) {
		t.Fatalf("want the bumped plan, and only it among the first and last, to violate:\n%s\n%s", with[0], with[5])
	}
	if probedWith != 3 || probedWithout != 0 {
		t.Fatalf("%d certifications probed, %d without probes; want 3 and 0", probedWith, probedWithout)
	}
}

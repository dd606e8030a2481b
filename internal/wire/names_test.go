package wire

import (
	"math"
	"strings"
	"testing"

	"ffc/internal/core"
	"ffc/internal/topology"
)

// TestResolveFlowAndDemand: unknown switches, self-loops and values that
// are not finite and non-negative all error.
func TestResolveFlowAndDemand(t *testing.T) {
	net := topology.Example4()
	f, err := ResolveFlow(net, "s2", "s4")
	if err != nil || net.Switches[f.Src].Name != "s2" || net.Switches[f.Dst].Name != "s4" {
		t.Fatalf("ResolveFlow(s2, s4) = %+v, %v", f, err)
	}
	for _, tc := range []struct {
		d    DemandEntry
		want string
	}{
		{DemandEntry{Src: "nope", Dst: "s4", Demand: 1}, "unknown switch"},
		{DemandEntry{Src: "s2", Dst: "nope", Demand: 1}, "unknown switch"},
		{DemandEntry{Src: "s2", Dst: "s2", Demand: 1}, "src == dst"},
		{DemandEntry{Src: "s2", Dst: "s4", Demand: -5}, "demand is -5"},
		{DemandEntry{Src: "s2", Dst: "s4", Demand: math.NaN()}, "demand is NaN"},
		{DemandEntry{Src: "s2", Dst: "s4", Demand: math.Inf(1)}, "demand is +Inf"},
	} {
		if _, err := ResolveDemand(net, tc.d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %v, want containing %q", tc.d, err, tc.want)
		}
	}
}

// TestMarkLink: a physical link resolves from its endpoints in either
// order, and both directions go down and come back up together.
func TestMarkLink(t *testing.T) {
	net := topology.Example4()
	s2, _ := net.SwitchByName("s2")
	s4, _ := net.SwitchByName("s4")
	fwd := net.FindLink(s2, s4)
	rev := net.Links[fwd].Twin
	dl := map[topology.LinkID]bool{}
	if err := MarkLink(net, dl, "s4", "s2", true); err != nil {
		t.Fatal(err)
	}
	if len(dl) != 2 || !dl[fwd] || !dl[rev] {
		t.Fatalf("s4-s2 down marks %v, want both directions of s2-s4", dl)
	}
	if err := MarkLink(net, dl, "s2", "s4", false); err != nil || len(dl) != 0 {
		t.Fatalf("s2-s4 up leaves %v (err %v), want none down", dl, err)
	}
	if err := MarkLink(net, dl, "s1", "nope", true); err == nil || !strings.Contains(err.Error(), "unknown switch") {
		t.Fatalf("unknown endpoint: %v", err)
	}
	if err := MarkLink(net, dl, "s1", "s1", true); err == nil || !strings.Contains(err.Error(), "src == dst") {
		t.Fatalf("self-loop: %v", err)
	}
	if len(dl) != 0 {
		t.Fatalf("failed resolutions marked %v", dl)
	}
}

// TestRecordProtection: a record's levels pass the update frame's range
// check, and a degraded record certifies at zero protection.
func TestRecordProtection(t *testing.T) {
	rec := TraceRecord{Seq: 1, Kc: 2, Ke: 1}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := rec.CertifiedProt(); got != (core.Protection{Kc: 2, Ke: 1}) {
		t.Fatalf("healthy record certifies at %v", got)
	}
	for _, reason := range []string{"crash", "uncertified", "unsolved"} {
		rec.Degraded = reason
		if got := rec.CertifiedProt(); got != core.None {
			t.Fatalf("%s record certifies at %v, want zero protection", reason, got)
		}
	}
	rec.Kv = maxProtection + 1
	if err := rec.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("kv above the cap: %v", err)
	}
}

package check

// Mutation tests: take the certified S-Net ke=2/kv=1 plan and break it in
// the three ways an installed configuration can silently rot — a rate
// above what was solved for, a backup tunnel the ingress no longer has,
// a link with less capacity than the solver believed — and assert the
// certifier rejects each one with a violating fault set that actually
// induces the overload.

import (
	"sort"
	"testing"

	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// clonePlan copies the plan data the certifier reads.
func clonePlan(st *core.State) *core.State {
	c := core.NewState()
	for f, r := range st.Rate {
		c.Rate[f] = r
	}
	for f, a := range st.Alloc {
		c.Alloc[f] = append([]float64(nil), a...)
	}
	return c
}

// downFromFaults renders a violation's fault set as pre-down sets (both
// directions of each physical link), so the case can be replayed as
// ground truth at zero protection.
func downFromFaults(net *topology.Network, fs FaultSet) (map[topology.LinkID]bool, map[topology.SwitchID]bool) {
	dl := map[topology.LinkID]bool{}
	for _, l := range fs.Links {
		dl[l] = true
		if tw := net.Links[l].Twin; tw != topology.None {
			dl[tw] = true
		}
	}
	ds := map[topology.SwitchID]bool{}
	for _, sw := range fs.Switches {
		ds[sw] = true
	}
	return dl, ds
}

// certifySNet certifies a (possibly mutated) S-Net plan at the fixture's
// protection level.
func certifySNet(t *testing.T, st *core.State) *Certificate {
	t.Helper()
	net, set, _, _ := snetPlan(t)
	cert, err := Certify(net, set, st, st, Params{Prot: snetProt})
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// TestMutationRateBump: granting a flow more than the solver admitted
// must be rejected, and the overload must already exist with no faults
// at all — the empty fault set is the violating one.
func TestMutationRateBump(t *testing.T) {
	net, set, _, st := snetPlan(t)
	if cert := certifySNet(t, st); !cert.OK {
		t.Fatalf("unmutated plan failed certification: %+v", cert.Violation)
	}

	var totalCap float64
	for _, l := range net.Links {
		totalCap += l.Capacity
	}
	var victim tunnel.Flow
	for f, r := range st.Rate {
		if r > st.Rate[victim] || st.Rate[victim] == 0 {
			if len(set.Tunnels(f)) > 0 {
				victim = f
			}
		}
	}
	mut := clonePlan(st)
	mut.Rate[victim] += 2 * totalCap

	cert := certifySNet(t, mut)
	if cert.OK {
		t.Fatal("rate-bumped plan certified")
	}
	if cert.Violation.Plane != "data" {
		t.Fatalf("violation on %q plane, want data", cert.Violation.Plane)
	}
	// The bump overloads the network before any fault: certifying at zero
	// protection must also reject, with the empty fault set.
	zero, err := Certify(net, set, mut, mut, Params{Prot: core.None})
	if err != nil {
		t.Fatal(err)
	}
	if zero.OK {
		t.Fatal("rate bump needs faults to violate; the no-fault case should already overload")
	}
	if !zero.Violation.Faults.Empty() {
		t.Fatalf("zero-protection violation blames faults: %+v", zero.Violation.Faults)
	}
	// And the overloaded link actually carries the bumped flow.
	onVictim := map[topology.LinkID]bool{}
	for _, tn := range set.Tunnels(victim) {
		for _, l := range tn.Links {
			onVictim[l] = true
		}
	}
	if !onVictim[zero.Violation.Link] {
		t.Fatalf("violating link %s not on the bumped flow's tunnels", zero.Violation.LinkName)
	}
	requireFailFastFirst(t, net, set, mut, Params{Prot: snetProt})
}

// TestMutationDroppedBackup: zeroing a backup tunnel's allocation (the
// ingress renormalizes the rest) must surface some plan whose worst fault
// case overloads a link — and replaying that exact fault set as pre-down
// state must reproduce the overload.
func TestMutationDroppedBackup(t *testing.T) {
	net, set, _, st := snetPlan(t)

	// Probe candidate mutations with a FailFast certification (a few
	// hundred evaluated cases, ≈ 10 ms, on an unmutated S-Net plan), then
	// take the worst case of the hit with a full one.
	flows := append([]tunnel.Flow(nil), set.All()...)
	sort.Slice(flows, func(i, j int) bool { return st.Rate[flows[i]] > st.Rate[flows[j]] })
	probe := Params{Prot: snetProt, FailFast: true}
	var mutated *core.State
probing:
	for _, f := range flows {
		alloc := st.Alloc[f]
		if st.Rate[f] <= 0 {
			continue
		}
		positive := 0
		for _, a := range alloc {
			if a > 0 {
				positive++
			}
		}
		if positive < 2 {
			continue // dropping the only tunnel just blackholes the flow
		}
		for j, a := range alloc {
			if a <= 0 {
				continue
			}
			mut := clonePlan(st)
			mut.Alloc[f][j] = 0
			cert, err := Certify(net, set, mut, mut, probe)
			if err != nil {
				t.Fatal(err)
			}
			if !cert.OK {
				mutated = mut
				break probing
			}
		}
	}
	if mutated == nil {
		t.Fatal("no dropped backup tunnel was rejected; the fixture plan has no load-bearing backups")
	}
	rejected, err := Certify(net, set, mutated, mutated, Params{Prot: snetProt})
	if err != nil {
		t.Fatal(err)
	}
	if rejected.OK {
		t.Fatal("the full certification disagrees with the FailFast rejection")
	}
	if rejected.Violation.Plane != "data" {
		t.Fatalf("violation on %q plane, want data", rejected.Violation.Plane)
	}
	// Ground-truth replay: apply the blamed fault set as pre-down state
	// and the overload must be there with zero remaining protection.
	dl, ds := downFromFaults(net, rejected.Violation.Faults)
	replay, err := Certify(net, set, mutated, mutated, Params{
		Prot: core.None, DownLinks: dl, DownSwitches: ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if replay.OK {
		t.Fatalf("blamed fault set %+v does not induce the violation", rejected.Violation.Faults)
	}
	if !replay.Violation.Faults.Empty() {
		t.Fatalf("replay blames further faults: %+v", replay.Violation.Faults)
	}
	requireFailFastFirst(t, net, set, mutated, Params{Prot: snetProt})
}

// TestMutationShrunkCapacity: shrinking one link below its fault-free
// load must be rejected, the violation must be on exactly that link, and
// the blamed fault set must induce at least the fault-free overload.
func TestMutationShrunkCapacity(t *testing.T) {
	net, set, _, st := snetPlan(t)

	// Fault-free loads as the certifier computes them: each flow's rate
	// split over its tunnels by allocation weight (the allocation sums
	// themselves over-provision for failures, so they'd overstate load).
	loads := map[topology.LinkID]float64{}
	for _, f := range set.All() {
		w := weightsOf(nil, st.Alloc[f])
		for _, tn := range set.Tunnels(f) {
			for _, l := range tn.Links {
				loads[l] += st.Rate[f] * at(w, tn.Index)
			}
		}
	}
	var worst topology.LinkID
	var worstLoad float64
	for l, load := range loads {
		if load > worstLoad {
			worst, worstLoad = l, load
		}
	}
	if worstLoad <= 0 {
		t.Fatal("fixture plan loads no link")
	}
	caps := map[topology.LinkID]float64{worst: 0.98 * worstLoad}

	cert, err := Certify(net, set, st, st, Params{Prot: snetProt, Capacity: caps})
	if err != nil {
		t.Fatal(err)
	}
	if cert.OK {
		t.Fatal("plan certified against a link shrunk below its fault-free load")
	}
	if cert.Violation.Link != worst {
		t.Fatalf("violation on %s, want the shrunk link", cert.Violation.LinkName)
	}
	if cert.Violation.Capacity != caps[worst] {
		t.Fatalf("violation capacity %g, want the override %g", cert.Violation.Capacity, caps[worst])
	}
	// Replaying the blamed fault set must reproduce an overload on the
	// same link at zero protection.
	dl, ds := downFromFaults(net, cert.Violation.Faults)
	replay, err := Certify(net, set, st, st, Params{
		Prot: core.None, Capacity: caps, DownLinks: dl, DownSwitches: ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if replay.OK {
		t.Fatalf("blamed fault set %+v does not induce the violation", cert.Violation.Faults)
	}
	if replay.Violation.Link != worst {
		t.Fatalf("replay violation on %s, want the shrunk link", replay.Violation.LinkName)
	}
	requireFailFastFirst(t, net, set, st, Params{Prot: snetProt, Capacity: caps})
}

package testbed

import (
	"math/rand"
	"testing"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

func setup(t *testing.T) (*Emulation, *tunnel.Set, *core.State, *core.State, topology.LinkID) {
	t.Helper()
	net, tun, ffc, plain, err := Fig10Setup()
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.Net, e.Tun = net, tun
	s6, _ := e.Net.SwitchByName("s6")
	s7, _ := e.Net.SwitchByName("s7")
	link := e.Net.FindLink(s6, s7)
	if link == topology.None {
		t.Fatal("link s6–s7 missing")
	}
	return e, tun, ffc, plain, link
}

// oneLinkSafe certifies st exactly against every single link failure.
func oneLinkSafe(t *testing.T, net *topology.Network, tun *tunnel.Set, st *core.State) bool {
	t.Helper()
	cert, err := check.Certify(net, tun, st, st, check.Params{Prot: core.Protection{Ke: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return cert.OK
}

func TestFFCTimelineNoControllerReaction(t *testing.T) {
	e, _, ffc, _, link := setup(t)
	rng := rand.New(rand.NewSource(1))
	out := e.FailLink(link, ffc, rng, 0)
	if out.ControllerReacted {
		t.Fatal("FFC state should not need controller intervention for one link failure")
	}
	// Loss ends shortly after detection + notification + rescale:
	// detection 5 ms, Singapore→affected-ingress propagation tens of ms.
	if out.LossDuration > 150*time.Millisecond {
		t.Fatalf("FFC loss lasted %v, want well under 150ms", out.LossDuration)
	}
	if out.LossDuration < e.DetectDelay {
		t.Fatalf("loss duration %v shorter than detection delay", out.LossDuration)
	}
	kinds := map[string]bool{}
	for _, ev := range out.Events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"link-failure", "failure-detected", "failure-notified", "rescaled", "loss-stop"} {
		if !kinds[want] {
			t.Fatalf("missing event %q in timeline: %v", want, out.Events)
		}
	}
}

func TestNonFFCTimelineReacts(t *testing.T) {
	e, _, _, plain, link := setup(t)
	rng := rand.New(rand.NewSource(2))
	// Fast case (Fig 11b): 5 ms rule update.
	fast := e.FailLink(link, plain, rng, 5*time.Millisecond)
	if !fast.ControllerReacted {
		t.Fatal("non-FFC Fig 10 state must congest after s6–s7 fails")
	}
	// Slow case (Fig 11c): 1 s rule update stretches the congestion.
	slow := e.FailLink(link, plain, rng, time.Second)
	if slow.LossDuration <= fast.LossDuration {
		t.Fatalf("slow update loss %v not longer than fast %v", slow.LossDuration, fast.LossDuration)
	}
	if slow.LostBytes <= fast.LostBytes {
		t.Fatalf("slow update lost %v ≤ fast %v", slow.LostBytes, fast.LostBytes)
	}
}

func TestFFCVsNonFFCLoss(t *testing.T) {
	e, tun, ffc, plain, link := setup(t)
	// Confirm the FFC state really survives every single link failure and
	// the plain state does not (otherwise the comparison is vacuous).
	if !oneLinkSafe(t, e.Net, tun, ffc) {
		t.Fatal("FFC state not 1-link safe")
	}
	rng := rand.New(rand.NewSource(3))
	of := e.FailLink(link, ffc, rng, 100*time.Millisecond)
	op := e.FailLink(link, plain, rng, 100*time.Millisecond)
	if op.ControllerReacted && of.LostBytes >= op.LostBytes {
		t.Fatalf("FFC lost %v ≥ non-FFC %v", of.LostBytes, op.LostBytes)
	}
}

func TestTimelineOrdering(t *testing.T) {
	e, _, ffc, _, link := setup(t)
	rng := rand.New(rand.NewSource(4))
	out := e.FailLink(link, ffc, rng, 0)
	for i := 1; i < len(out.Events); i++ {
		if out.Events[i].At < out.Events[i-1].At {
			t.Fatalf("events out of order: %v", out.Events)
		}
	}
	if out.Events[0].Kind != "link-failure" && out.Events[0].Kind != "loss-start" {
		t.Fatalf("first event %q", out.Events[0].Kind)
	}
}

func TestPropagationDelays(t *testing.T) {
	e := New()
	s2, _ := e.Net.SwitchByName("s2") // San Francisco
	s5, _ := e.Net.SwitchByName("s5") // New York
	d := e.propagation(s2, s5)
	// ~4100 km at 200,000 km/s ≈ 20 ms one-way.
	if d < 15*time.Millisecond || d > 30*time.Millisecond {
		t.Fatalf("SF→NY propagation %v implausible", d)
	}
	if e.propagation(s2, s2) != 0 {
		t.Fatal("self propagation nonzero")
	}
}

func TestFig10StatesDiffer(t *testing.T) {
	e, tun, ffc, plain, _ := setup(t)
	s4, _ := e.Net.SwitchByName("s4")
	s5, _ := e.Net.SwitchByName("s5")
	f45 := tunnel.Flow{Src: s4, Dst: s5}
	if ffc.Rate[f45] < 1-1e-6 || plain.Rate[f45] < 1-1e-6 {
		t.Fatalf("both approaches must carry the full demand: %v / %v", ffc.Rate[f45], plain.Rate[f45])
	}
	// Fig 10's difference: FFC routes the overflow via s6, non-FFC via s3.
	if ffc.Alloc[f45][2] <= 0 || plain.Alloc[f45][1] <= 0 {
		t.Fatalf("overflow paths wrong: ffc %v plain %v", ffc.Alloc[f45], plain.Alloc[f45])
	}
	// And the paper's headline: plain is not 1-link safe, FFC is.
	if oneLinkSafe(t, e.Net, tun, plain) {
		t.Fatal("plain Fig 10 state unexpectedly 1-link safe")
	}
}

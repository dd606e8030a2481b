package topology

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestAddDuplexTwins(t *testing.T) {
	n := NewNetwork("t")
	a := n.AddSwitch("a", "a", 0, 0)
	b := n.AddSwitch("b", "b", 0, 1)
	f := n.AddDuplex(a, b, 5)
	r := n.Links[f].Twin
	if r == None {
		t.Fatal("duplex forward link has no twin")
	}
	if n.Links[r].Src != b || n.Links[r].Dst != a || n.Links[r].Twin != f {
		t.Fatalf("twin mismatch: %+v", n.Links[r])
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalFoldsTwins(t *testing.T) {
	n := NewNetwork("t")
	a := n.AddSwitch("a", "a", 0, 0)
	b := n.AddSwitch("b", "b", 0, 1)
	c := n.AddSwitch("c", "c", 0, 2)
	one := n.AddLink(c, a, 1) // simplex: its own identity
	f := n.AddDuplex(a, b, 5)
	r := n.Links[f].Twin
	for _, tc := range []struct{ l, want LinkID }{{one, one}, {f, f}, {r, f}} {
		if got := n.Physical(tc.l); got != tc.want {
			t.Fatalf("Physical(%d) = %d, want %d", tc.l, got, tc.want)
		}
	}
	if got := n.PhysicalLinks(); len(got) != 2 || got[0] != one || got[1] != f {
		t.Fatalf("PhysicalLinks() = %v, want [%d %d]", got, one, f)
	}
}

func TestValidateCatchesBadLinks(t *testing.T) {
	n := NewNetwork("t")
	a := n.AddSwitch("a", "a", 0, 0)
	b := n.AddSwitch("b", "b", 0, 1)
	n.AddLink(a, b, 5)
	n.Links[0].Dst = 99
	if err := n.Validate(); err == nil {
		t.Fatal("expected out-of-range endpoint error")
	}
	n.Links[0].Dst = b
	n.Links[0].Capacity = -1
	if err := n.Validate(); err == nil {
		t.Fatal("expected non-positive capacity error")
	}
	n.Links[0].Capacity = 5
	n.Links[0].Src = b // self loop b→b
	if err := n.Validate(); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestAdjacency(t *testing.T) {
	n := Example4()
	s1, _ := n.SwitchByName("s1")
	if got := len(n.OutLinks(s1)); got != 3 {
		t.Fatalf("s1 out-degree = %d, want 3", got)
	}
	s4, _ := n.SwitchByName("s4")
	if id := n.FindLink(s1, s4); id == None {
		t.Fatal("s1→s4 link not found")
	}
	s2, _ := n.SwitchByName("s2")
	if id := n.FindLink(s2, s2); id != None {
		t.Fatal("found nonexistent self link")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n := Example4()
	blob, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != n.Name || len(back.Switches) != len(n.Switches) || len(back.Links) != len(n.Links) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.FindLink(0, 3) == None {
		t.Fatal("adjacency broken after unmarshal")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	blob := []byte(`{"name":"x","switches":[{"id":0,"name":"a"}],"links":[{"id":0,"src":0,"dst":5,"capacity":1,"twin":-1}]}`)
	var n Network
	if err := json.Unmarshal(blob, &n); err == nil {
		t.Fatal("expected validation error for dangling link")
	}
}

func TestLNetGenerator(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := LNet(LNetConfig{}, rng)
		if err := n.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !n.Connected() {
			t.Fatalf("seed %d: L-Net not connected", seed)
		}
		if n.NumSwitches() != 24 {
			t.Fatalf("seed %d: %d switches, want 24", seed, n.NumSwitches())
		}
		if n.NumLinks() < 100 {
			t.Fatalf("seed %d: only %d directed links", seed, n.NumLinks())
		}
	}
}

func TestLNetScalesWithConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := LNet(LNetConfig{Sites: 20, SwitchesPerSite: 3}, rng)
	if n.NumSwitches() != 60 {
		t.Fatalf("%d switches, want 60", n.NumSwitches())
	}
	if !n.Connected() {
		t.Fatal("not connected")
	}
}

func TestSNetShape(t *testing.T) {
	n := SNet()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumSwitches() != 24 {
		t.Fatalf("%d switches, want 24", n.NumSwitches())
	}
	// 12 intra-site duplex + 19 site links × 4 switch pairs, ×2 directions.
	want := 2 * (12 + 19*4)
	if n.NumLinks() != want {
		t.Fatalf("%d directed links, want %d", n.NumLinks(), want)
	}
	if !n.Connected() {
		t.Fatal("S-Net not connected")
	}
}

func TestTestbedShape(t *testing.T) {
	n := Testbed()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumSwitches() != 8 {
		t.Fatalf("%d switches, want 8", n.NumSwitches())
	}
	if !n.Connected() {
		t.Fatal("testbed not connected")
	}
	// Links the paper's walkthrough depends on must exist.
	for _, pair := range [][2]string{{"s6", "s7"}, {"s4", "s5"}, {"s3", "s6"}, {"s4", "s6"}, {"s3", "s5"}} {
		a, _ := n.SwitchByName(pair[0])
		b, _ := n.SwitchByName(pair[1])
		if n.FindLink(a, b) == None {
			t.Fatalf("missing testbed link %s→%s", pair[0], pair[1])
		}
	}
	for _, l := range n.Links {
		if l.Capacity != 1 {
			t.Fatalf("testbed link %d capacity %g, want 1", l.ID, l.Capacity)
		}
	}
}

func TestGeoDistance(t *testing.T) {
	n := Testbed()
	sf, _ := n.SwitchByName("s2")
	ny, _ := n.SwitchByName("s5")
	d := n.GeoDistanceKm(sf, ny)
	if d < 3500 || d > 4800 {
		t.Fatalf("SF–NY distance %v km implausible", d)
	}
	if n.GeoDistanceKm(sf, sf) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := Example4()
	c := n.Clone()
	c.Links[0].Capacity = 999
	if n.Links[0].Capacity == 999 {
		t.Fatal("Clone shares link storage")
	}
}

func TestConnectedDetectsPartition(t *testing.T) {
	n := NewNetwork("p")
	a := n.AddSwitch("a", "a", 0, 0)
	b := n.AddSwitch("b", "b", 0, 1)
	n.AddSwitch("c", "c", 0, 2) // isolated
	n.AddDuplex(a, b, 1)
	if n.Connected() {
		t.Fatal("partitioned network reported connected")
	}
}

func TestTotalCapacity(t *testing.T) {
	n := NewNetwork("t")
	a := n.AddSwitch("a", "a", 0, 0)
	b := n.AddSwitch("b", "b", 0, 1)
	n.AddDuplex(a, b, 7)
	if got := n.TotalCapacity(); got != 14 {
		t.Fatalf("TotalCapacity = %v, want 14", got)
	}
}

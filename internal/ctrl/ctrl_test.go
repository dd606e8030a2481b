package ctrl

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

// testConfig returns a controller config over Example4 with a tiny demand
// set: fast solves, a very long ticker (tests step recomputes via Kick).
func testConfig(t *testing.T) Config {
	t.Helper()
	net := topology.Example4()
	s1, _ := net.SwitchByName("s1")
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	return Config{
		Net: net,
		Demands: demand.Matrix{
			{Src: s2, Dst: s4}: 10,
			{Src: s1, Dst: s4}: 4,
			{Src: s3, Dst: s2}: 3,
		},
		Prot:     core.Protection{Ke: 1},
		Layout:   tunnel.LayoutConfig{TunnelsPerFlow: 3},
		Interval: time.Hour, // recomputes are driven by Kick in tests
	}
}

// waitSeq blocks until the served plan reaches at least seq.
func waitSeq(t *testing.T, c *Controller, seq int64) *Plan {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := c.GetPlan()
		if p.Seq >= seq {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan stuck at seq %d, want >= %d", p.Seq, seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkPlan asserts a served snapshot is internally consistent — the
// invariants a torn read would break: the flow rates sum to the advertised
// total, no flow's rate exceeds its allocation total (with Degrade's cap,
// rates can only be below), the pre-encoded payload matches the File, and
// the metadata matches the flow set.
func checkPlan(p *Plan) error {
	if p == nil {
		return fmt.Errorf("nil plan")
	}
	var sum float64
	for _, fl := range p.File.Flows {
		sum += fl.Rate
		var alloc float64
		for _, ta := range fl.Tunnels {
			alloc += ta.Alloc
		}
		if fl.Rate > alloc+1e-6 {
			return fmt.Errorf("seq %d: flow %s->%s rate %g exceeds allocation %g", p.Seq, fl.Src, fl.Dst, fl.Rate, alloc)
		}
	}
	if math.Abs(sum-p.File.TotalRate) > 1e-6 {
		return fmt.Errorf("seq %d: flow rates sum to %g, TotalRate says %g", p.Seq, sum, p.File.TotalRate)
	}
	m := p.Meta()
	if m.Flows != len(p.File.Flows) {
		return fmt.Errorf("seq %d: meta flows %d != %d", p.Seq, m.Flows, len(p.File.Flows))
	}
	var sf wire.StateFile
	if err := json.Unmarshal(p.Encoded, &sf); err != nil {
		return fmt.Errorf("seq %d: encoded payload: %v", p.Seq, err)
	}
	if len(sf.Flows) != len(p.File.Flows) || sf.TotalRate != p.File.TotalRate {
		return fmt.Errorf("seq %d: encoded payload disagrees with File", p.Seq)
	}
	return nil
}

// TestControllerSolvesAndServes: the first recompute installs a real plan
// and GetPlan serves it.
func TestControllerSolvesAndServes(t *testing.T) {
	c, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if p := c.GetPlan(); p.Seq != 0 || p.Degraded != "unsolved" {
		t.Fatalf("pre-start plan: seq %d degraded %q, want 0/unsolved", p.Seq, p.Degraded)
	}
	c.Start()
	defer c.Stop()
	p := waitSeq(t, c, 1)
	if err := checkPlan(p); err != nil {
		t.Fatal(err)
	}
	if p.Degraded != "" {
		t.Fatalf("first solve degraded: %q", p.Degraded)
	}
	if p.File.TotalRate <= 0 {
		t.Fatalf("no throughput granted: %+v", p.Meta())
	}
	// Every served plan carries the certificate it passed.
	if m := p.Meta(); !m.Certified || m.WorstSlack == nil {
		t.Fatalf("served plan is not marked certified: %+v", m)
	}
}

// TestApplyUpdates: streamed updates change the desired state and the next
// recompute reflects them; bad updates error without touching anything.
func TestApplyUpdates(t *testing.T) {
	c, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	p := waitSeq(t, c, 1)

	// Unknown names must error.
	down := false
	if err := c.Apply(&wire.Update{Op: wire.UpdateSwitch, Switch: "nope", Up: &down}); err == nil {
		t.Fatal("unknown switch accepted")
	}
	if err := c.Apply(&wire.Update{Op: wire.UpdateLink, Src: "s1", Dst: "nope", Up: &down}); err == nil {
		t.Fatal("unknown link accepted")
	}

	// A link failure must reduce or hold throughput, never break the plan.
	if err := c.Apply(&wire.Update{Op: wire.UpdateLink, Src: "s2", Dst: "s4", Up: &down}); err != nil {
		t.Fatal(err)
	}
	p2 := waitSeq(t, c, p.Seq+1)
	if err := checkPlan(p2); err != nil {
		t.Fatal(err)
	}
	if p2.File.TotalRate > p.File.TotalRate+1e-6 {
		t.Fatalf("throughput grew after link failure: %g -> %g", p.File.TotalRate, p2.File.TotalRate)
	}

	// New flow via demand update: the controller re-lays-out tunnels.
	if err := c.Apply(&wire.Update{Op: wire.UpdateDemands, Demands: []wire.DemandEntry{
		{Src: "s1", Dst: "s3", Demand: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	p3 := waitSeq(t, c, p2.Seq+1)
	if err := checkPlan(p3); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fl := range p3.File.Flows {
		if fl.Src == "s1" && fl.Dst == "s3" {
			found = true
			if len(fl.Tunnels) == 0 {
				t.Fatal("new flow has no tunnels")
			}
		}
	}
	if !found {
		t.Fatalf("new flow missing from plan: %+v", p3.File.Flows)
	}

	// Protection change lands in the metadata.
	kc := 0
	ke := 0
	if err := c.Apply(&wire.Update{Op: wire.UpdateProtection, Kc: &kc, Ke: &ke}); err != nil {
		t.Fatal(err)
	}
	p4 := waitSeq(t, c, p3.Seq+1)
	if m := p4.Meta(); m.Ke != 0 || m.Kc != 0 {
		t.Fatalf("protection change not reflected: %+v", m)
	}
}

// TestRejectedApplyKicksNothing: on an unstarted controller, updates that
// name no switch or link error, leave no kick queued and count nothing
// pending; a valid update then does both.
func TestRejectedApplyKicksNothing(t *testing.T) {
	c, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	down := false
	for _, u := range []*wire.Update{
		{Op: wire.UpdateSwitch, Switch: "nope", Up: &down},
		{Op: wire.UpdateLink, Src: "s1", Dst: "nope", Up: &down},
		{Op: wire.UpdateLink, Src: "s1", Dst: "s1", Up: &down},
		{Op: wire.UpdateDemands, Demands: []wire.DemandEntry{{Src: "s1", Dst: "s3", Demand: 1}, {Src: "nope", Dst: "s3", Demand: 1}}},
	} {
		if err := c.Apply(u); err == nil {
			t.Fatalf("%+v accepted", u)
		}
		if len(c.kick) != 0 || c.pending != 0 {
			t.Fatalf("rejected %+v: kick queued %d, pending %d; want 0, 0", u, len(c.kick), c.pending)
		}
	}
	if err := c.Apply(&wire.Update{Op: wire.UpdateLink, Src: "s2", Dst: "s4", Up: &down}); err != nil {
		t.Fatal(err)
	}
	if len(c.kick) != 1 || c.pending != 1 {
		t.Fatalf("accepted update: kick queued %d, pending %d; want 1, 1", len(c.kick), c.pending)
	}
}

// TestGetPlanHammer runs queries against concurrent recomputes and
// updates; under -race this is the lock-free serving acceptance test.
// Every observed snapshot must be internally consistent and the sequence
// monotone per reader.
func TestGetPlanHammer(t *testing.T) {
	cfg := testConfig(t)
	cfg.Interval = 2 * time.Millisecond // free-running recomputes
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitSeq(t, c, 1)

	const readers = 8
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSeq := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := c.GetPlan()
				if p.Seq < lastSeq {
					errs <- fmt.Errorf("seq went backwards: %d after %d", p.Seq, lastSeq)
					return
				}
				lastSeq = p.Seq
				if err := checkPlan(p); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}()
	}
	// One writer streams demand churn while the readers hammer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			u := &wire.Update{Op: wire.UpdateDemands, Demands: []wire.DemandEntry{
				{Src: "s2", Dst: "s4", Demand: float64(5 + i%10)},
			}}
			if err := c.Apply(u); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if reads.Load() == 0 {
		t.Fatal("hammer read nothing")
	}
	final := c.GetPlan()
	if final.Seq < 2 {
		t.Fatalf("recompute loop barely ran: seq %d", final.Seq)
	}
	t.Logf("%d reads across %d installs", reads.Load(), c.Stats().PlansInstalled)
}

// TestInjectedFaultsDegrade forces one fault of each kind and checks the
// controller installs a degraded plan (with the right reason, reporting
// zero protection) instead of failing, then recovers.
func TestInjectedFaultsDegrade(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = faults.SolverFaultModel{Force: map[int]faults.SolverFaultKind{
		// Interval 0 is the boot solve; degrade the next three.
		1: faults.SolverCrash,
		2: faults.SolverTimeout,
		3: faults.SolverStale,
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	good := waitSeq(t, c, 1)
	if good.Degraded != "" {
		t.Fatalf("boot solve degraded: %q", good.Degraded)
	}

	want := []string{"crash", "timeout", "stale"}
	for i, reason := range want {
		c.Kick()
		p := waitSeq(t, c, good.Seq+int64(i)+1)
		if p.Degraded != reason {
			t.Fatalf("install %d: degraded %q, want %q", i, p.Degraded, reason)
		}
		// The last-good fallback promises no protection, so it reports none.
		if m := p.Meta(); m.Kc != 0 || m.Ke != 0 || m.Kv != 0 {
			t.Fatalf("install %d (%s): degraded plan reports kc=%d ke=%d kv=%d, want 0", i, reason, m.Kc, m.Ke, m.Kv)
		}
		if err := checkPlan(p); err != nil {
			t.Fatal(err)
		}
		// The degraded plan carries the last-good allocation: throughput
		// must survive (Example4 without faults degrades losslessly).
		if p.File.TotalRate < good.File.TotalRate-1e-6 {
			t.Fatalf("install %d: degraded plan lost throughput: %g -> %g", i, good.File.TotalRate, p.File.TotalRate)
		}
	}
	// Interval 4: no fault forced; the loop recovers with a fresh solve.
	c.Kick()
	p := waitSeq(t, c, good.Seq+4)
	if p.Degraded != "" {
		t.Fatalf("recovery solve still degraded: %q", p.Degraded)
	}
	if p.Prot != cfg.Prot {
		t.Fatalf("recovery solve reports protection %v, want %v", p.Prot, cfg.Prot)
	}
	if got := c.Stats().DegradedInstalls; got != 3 {
		t.Fatalf("degraded installs: %d, want 3", got)
	}
}

// TestSnapshotRestore: a stopped controller's snapshot boots a new one
// that serves the same plan — marked restored, same sequence — before its
// first solve runs (the first solve is held by FirstSolveDelay).
func TestSnapshotRestore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "ffcd.snap")
	cfg := testConfig(t)
	cfg.SnapshotPath = snap

	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1.Start()
	p1 := waitSeq(t, c1, 1)
	down := false
	if err := c1.Apply(&wire.Update{Op: wire.UpdateLink, Src: "s2", Dst: "s4", Up: &down}); err != nil {
		t.Fatal(err)
	}
	p1 = waitSeq(t, c1, p1.Seq+1)
	c1.Stop() // writes the final snapshot

	cfg2 := cfg
	cfg2.FirstSolveDelay = time.Hour // the restored plan must serve alone
	c2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	defer c2.Stop()
	p2 := c2.GetPlan()
	if !p2.Restored {
		t.Fatalf("restarted controller serves a non-restored plan: %+v", p2.Meta())
	}
	if p2.Seq != p1.Seq {
		t.Fatalf("restored seq %d, want %d", p2.Seq, p1.Seq)
	}
	if math.Abs(p2.File.TotalRate-p1.File.TotalRate) > 1e-9 {
		t.Fatalf("restored rate %g, want %g", p2.File.TotalRate, p1.File.TotalRate)
	}
	if err := checkPlan(p2); err != nil {
		t.Fatal(err)
	}
	if !c2.Stats().RestoredAtBoot {
		t.Fatal("stats do not mark the boot as restored")
	}
	// The down link must survive the restart: it came back via the
	// snapshot's desired state, not the wire.
	c2.mu.Lock()
	downLinks := len(c2.downLinks)
	c2.mu.Unlock()
	if downLinks == 0 {
		t.Fatal("down link lost across restart")
	}
}

// TestServerEndToEnd drives the TCP protocol: queries, updates, malformed
// frames, and graceful close.
func TestServerEndToEnd(t *testing.T) {
	c, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitSeq(t, c, 1)

	srv, err := Serve(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	meta, sf, err := cl.GetPlan()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seq < 1 || len(sf.Flows) == 0 {
		t.Fatalf("empty plan over the wire: %+v", meta)
	}
	_, routes, err := cl.GetRoutes()
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != len(sf.Flows) {
		t.Fatalf("routes/plan mismatch: %d vs %d", len(routes), len(sf.Flows))
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QueriesServed == 0 {
		t.Fatal("stats served no queries")
	}

	// An update over the wire takes effect.
	down := false
	if err := cl.Update(&wire.Update{Op: wire.UpdateLink, Src: "s2", Dst: "s4", Up: &down}); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, c, meta.Seq+1)

	// Malformed and invalid frames get error replies, not disconnects.
	for _, frame := range []string{
		`{"op":"link","src":"s1"}`,                   // missing fields
		`{"op":"switch","switch":"nope","up":false}`, // unknown name
		`{"nonsense":1}`,                             // neither q nor op
		`{"q":"reboot"}`,                             // unknown query
	} {
		resp, err := cl.do([]byte(frame))
		if err != nil {
			t.Fatalf("%s: transport error %v", frame, err)
		}
		if resp.OK || resp.Error == "" {
			t.Fatalf("%s: accepted (%+v)", frame, resp)
		}
	}
	// The connection still works afterwards.
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after bad frames: %v", err)
	}
}

// TestServerConcurrentLoad hammers the server from many connections while
// the controller recomputes — the wire-level race check.
func TestServerConcurrentLoad(t *testing.T) {
	cfg := testConfig(t)
	cfg.Interval = 2 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitSeq(t, c, 1)
	srv, err := Serve(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const conns = 6
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(srv.Addr(), time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			lastSeq := int64(-1)
			for j := 0; j < 150; j++ {
				meta, sf, err := cl.GetPlan()
				if err != nil {
					errs <- err
					return
				}
				if meta.Seq < lastSeq {
					errs <- fmt.Errorf("seq went backwards over the wire: %d after %d", meta.Seq, lastSeq)
					return
				}
				lastSeq = meta.Seq
				var sum float64
				for _, fl := range sf.Flows {
					sum += fl.Rate
				}
				if math.Abs(sum-sf.TotalRate) > 1e-6 {
					errs <- fmt.Errorf("torn plan over the wire at seq %d", meta.Seq)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

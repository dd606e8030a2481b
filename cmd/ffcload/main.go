// Command ffcload exercises a running ffcd: it hammers plan queries at a
// target QPS across several connections, optionally replays a recorded
// fault/demand trace (or generates synthetic churn) on the side, and
// reports serve-latency percentiles. It is both the daemon's load
// generator and its acceptance checker: -strict fails the run if any
// query is dropped, -require-degraded fails it if the daemon never took
// the degraded fallback (used by the CI soak, which injects solver
// faults and must see them absorbed).
//
//	ffcload -addr 127.0.0.1:7070 -qps 500 -duration 10s -churn -strict
//
// A trace file is JSON: {"trace":[{"at_ms":120,"update":{...}}, ...]}
// where each update is one wire.Update frame (see internal/wire).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ffc/internal/ctrl"
	"ffc/internal/metrics"
	"ffc/internal/wire"
)

// TraceEntry schedules one update relative to the start of the replay.
type TraceEntry struct {
	AtMs   int64       `json:"at_ms"`
	Update wire.Update `json:"update"`
}

// TraceFile is the on-disk trace format.
type TraceFile struct {
	Trace []TraceEntry `json:"trace"`
}

func main() {
	var (
		addr       = flag.String("addr", "", "ffcd address (required)")
		qps        = flag.Float64("qps", 200, "target aggregate query rate")
		conns      = flag.Int("conns", 4, "parallel connections")
		duration   = flag.Duration("duration", 5*time.Second, "run length")
		query      = flag.String("query", ctrl.QueryPlan, "query verb to hammer: get_plan, get_routes, meta, stats, ping")
		tracePath  = flag.String("trace", "", "replay this fault/demand trace while hammering")
		churn      = flag.Bool("churn", false, "generate synthetic churn (demand scaling, link flaps) learned from the served plan")
		churnEvery = flag.Duration("churn-every", 250*time.Millisecond, "synthetic churn period")
		seed       = flag.Int64("seed", 1, "churn RNG seed")
		timeout    = flag.Duration("timeout", 5*time.Second, "dial timeout")
		strict     = flag.Bool("strict", false, "exit non-zero if any query fails")
		requireDeg = flag.Bool("require-degraded", false, "exit non-zero unless the daemon reports >=1 degraded install")
	)
	flag.Parse()
	if *addr == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *conns < 1 {
		*conns = 1
	}

	// A control connection for plan discovery, trace/churn, and stats.
	cc, err := ctrl.Dial(*addr, *timeout)
	if err != nil {
		fatalf("%v", err)
	}
	defer cc.Close()
	if err := cc.Ping(); err != nil {
		fatalf("ping: %v", err)
	}
	before, err := cc.Stats()
	if err != nil {
		fatalf("stats: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(*duration, func() { close(stop) })

	if *tracePath != "" {
		var tf TraceFile
		blob, err := os.ReadFile(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.Unmarshal(blob, &tf); err != nil {
			fatalf("parsing %s: %v", *tracePath, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replayTrace(cc, tf, stop)
		}()
	}
	if *churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runChurn(cc, *churnEvery, rand.New(rand.NewSource(*seed)), stop)
		}()
	}

	// The query hammer: per-connection workers, each paced to its share of
	// the aggregate QPS. Latencies stay per-worker (metrics.Dist is not
	// concurrency-safe) and merge after the run.
	var failures atomic.Int64
	var failMsg sync.Once
	perConn := time.Duration(float64(time.Second) * float64(*conns) / *qps)
	if perConn <= 0 {
		perConn = time.Microsecond
	}
	lats := make([][]float64, *conns)
	for i := 0; i < *conns; i++ {
		cl, err := ctrl.Dial(*addr, *timeout)
		if err != nil {
			fatalf("%v", err)
		}
		wg.Add(1)
		go func(i int, cl *ctrl.Client) {
			defer wg.Done()
			defer cl.Close()
			tick := time.NewTicker(perConn)
			defer tick.Stop()
			lastSeq := int64(-1)
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				start := time.Now()
				resp, err := cl.Query(*query)
				lat := time.Since(start)
				if err == nil {
					err = checkReply(*query, resp, &lastSeq)
				}
				if err != nil {
					failures.Add(1)
					failMsg.Do(func() { fmt.Fprintf(os.Stderr, "ffcload: first failure: %v\n", err) })
					continue
				}
				lats[i] = append(lats[i], float64(lat.Nanoseconds()))
			}
		}(i, cl)
	}
	wg.Wait()

	var serve metrics.Dist
	var ok int64
	for _, ls := range lats {
		for _, v := range ls {
			serve.Add(v)
		}
		ok += int64(len(ls))
	}
	after, err := cc.Stats()
	if err != nil {
		fatalf("stats: %v", err)
	}
	meta, err := cc.Meta()
	if err != nil {
		fatalf("meta: %v", err)
	}

	installs := after.PlansInstalled - before.PlansInstalled
	degraded := after.DegradedInstalls - before.DegradedInstalls
	fmt.Printf("queries: %d ok, %d failed (%.0f qps over %v, %d conns)\n",
		ok, failures.Load(), float64(ok)/duration.Seconds(), *duration, *conns)
	if serve.N() > 0 {
		fmt.Printf("serve latency: p50 %v  p95 %v  p99 %v  max %v\n",
			nsDur(serve.Percentile(50)), nsDur(serve.Percentile(95)),
			nsDur(serve.Percentile(99)), nsDur(serve.Max()))
	}
	fmt.Printf("daemon: plan seq %d (degraded=%q restored=%v), %d installs (%d degraded) during the run, solve mean %v\n",
		meta.Seq, meta.Degraded, meta.Restored, installs, degraded, nsDur(float64(after.SolveMeanNs)))

	if *strict && failures.Load() > 0 {
		fatalf("strict: %d queries failed", failures.Load())
	}
	if *requireDeg && degraded == 0 {
		fatalf("require-degraded: daemon reported no degraded installs during the run")
	}
}

// checkReply sanity-checks a hammer reply: the plan snapshot must be
// internally consistent and the sequence must never move backwards on one
// connection.
func checkReply(q string, resp *ctrl.Response, lastSeq *int64) error {
	if q == ctrl.QueryPing || q == ctrl.QueryStats {
		return nil
	}
	if resp.Meta == nil {
		return fmt.Errorf("reply without meta")
	}
	if resp.Meta.Seq < *lastSeq {
		return fmt.Errorf("plan seq went backwards: %d after %d", resp.Meta.Seq, *lastSeq)
	}
	*lastSeq = resp.Meta.Seq
	if q == ctrl.QueryPlan {
		var sf wire.StateFile
		if err := json.Unmarshal(resp.Plan, &sf); err != nil {
			return fmt.Errorf("bad plan payload: %v", err)
		}
		if len(sf.Flows) != resp.Meta.Flows {
			return fmt.Errorf("torn plan: meta says %d flows, payload has %d", resp.Meta.Flows, len(sf.Flows))
		}
		var sum float64
		for _, fl := range sf.Flows {
			sum += fl.Rate
		}
		if d := sum - sf.TotalRate; d > 1e-6+1e-9*sum || d < -(1e-6+1e-9*sum) {
			return fmt.Errorf("torn plan: flow rates sum to %g, total says %g", sum, sf.TotalRate)
		}
	}
	return nil
}

// replayTrace sends each trace update at its offset.
func replayTrace(cc *ctrl.Client, tf TraceFile, stop <-chan struct{}) {
	entries := append([]TraceEntry(nil), tf.Trace...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].AtMs < entries[j].AtMs })
	start := time.Now()
	for i := range entries {
		at := time.Duration(entries[i].AtMs) * time.Millisecond
		delay := at - time.Since(start)
		if delay > 0 {
			select {
			case <-stop:
				return
			case <-time.After(delay):
			}
		}
		if err := cc.Update(&entries[i].Update); err != nil {
			fmt.Fprintf(os.Stderr, "ffcload: trace entry %d: %v\n", i, err)
		}
	}
}

// runChurn learns the flow and link structure from the served plan and
// streams synthetic updates: demand rescales and link down/up flaps.
func runChurn(cc *ctrl.Client, every time.Duration, rng *rand.Rand, stop <-chan struct{}) {
	_, routes, err := cc.GetRoutes()
	if err != nil || len(routes) == 0 {
		fmt.Fprintf(os.Stderr, "ffcload: churn disabled: no routes to learn from (%v)\n", err)
		return
	}
	type link struct{ src, dst string }
	var links []link
	seen := map[link]bool{}
	base := map[[2]string]float64{}
	for _, fl := range routes {
		base[[2]string{fl.Src, fl.Dst}] = fl.Demand
		for _, t := range fl.Tunnels {
			for i := 0; i+1 < len(t.Path); i++ {
				l := link{t.Path[i], t.Path[i+1]}
				if !seen[l] && !seen[link{l.dst, l.src}] {
					seen[l] = true
					links = append(links, l)
				}
			}
		}
	}
	flows := make([][2]string, 0, len(base))
	for f := range base {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i][0] != flows[j][0] {
			return flows[i][0] < flows[j][0]
		}
		return flows[i][1] < flows[j][1]
	})

	tick := time.NewTicker(every)
	defer tick.Stop()
	var downed *link
	for {
		select {
		case <-stop:
			// Leave the network intact for whoever runs next.
			if downed != nil {
				up := true
				cc.Update(&wire.Update{Op: wire.UpdateLink, Src: downed.src, Dst: downed.dst, Up: &up})
			}
			return
		case <-tick.C:
		}
		var u *wire.Update
		switch {
		case downed != nil:
			up := true
			u = &wire.Update{Op: wire.UpdateLink, Src: downed.src, Dst: downed.dst, Up: &up}
			downed = nil
		case len(links) > 0 && rng.Float64() < 0.3:
			l := links[rng.Intn(len(links))]
			up := false
			u = &wire.Update{Op: wire.UpdateLink, Src: l.src, Dst: l.dst, Up: &up}
			downed = &l
		default:
			f := flows[rng.Intn(len(flows))]
			d := base[f] * (0.5 + rng.Float64())
			u = &wire.Update{Op: wire.UpdateDemands, Demands: []wire.DemandEntry{
				{Src: f[0], Dst: f[1], Demand: d},
			}}
		}
		if err := cc.Update(u); err != nil {
			fmt.Fprintf(os.Stderr, "ffcload: churn update: %v\n", err)
		}
	}
}

func nsDur(ns float64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ffcload: "+format+"\n", args...)
	os.Exit(1)
}

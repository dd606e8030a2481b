package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// spec is one workload. A run is a sequence of identical laps: a lap sets
// everything up from nothing (one setup_s sample), runs warmups untimed
// intervals and then timed timed ones. Laps repeat until --seconds have
// passed, and the lap in progress is finished, so every run measures whole
// laps and medians compare like with like.
type spec struct {
	name, why string
	net       string
	prot      protection
	warmups   int
	timed     int
	// freshPrev makes the previous plan of every interval a plain-TE plan
	// of the previous interval's demands, instead of the chain's last plan.
	freshPrev bool
	// daemon runs the laps against a cmd/ffcd process instead of the library.
	daemon bool
}

var workloads = []spec{
	{
		name: "lnet-table2", net: "lnet", prot: protection{2, 1, 0}, warmups: 2, timed: 5,
		why: "Table 2 (2,1,0) chained on L-Net: kc>0 forces a fresh formulation and a cold simplex on a 1.5k-row LP (0.3 ms/iter) every interval",
	},
	{
		name: "snet-table2", net: "snet", prot: protection{1, 1, 0}, timed: 3, freshPrev: true,
		why: "Table 2's S-Net column at (1,1,0) over a plain-TE plan: a cold 2k-row LP at 0.8 ms/iter, where basis and pricing cost dominate",
	},
	{
		name: "lnet-drift", net: "lnet", prot: protection{0, 2, 0}, warmups: 2, timed: 100,
		why: "L-Net (0,2,0) under 5% demand drift: template rebinding and the warm basis both apply; cold-only gains predict no change",
	},
	{
		name: "ffcd-churn", net: "lnet", prot: protection{0, 2, 1}, warmups: 2, timed: 18, daemon: true,
		why: "real cmd/ffcd on loopback at README defaults under demand and link churn: the only path through ctrl, wire and async check",
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// intervalRec is one timed interval (library) or update (daemon).
type intervalRec struct {
	lap, interval int
	// ms is inputs in → certified, encoded plan out; +Inf when failed.
	ms float64
	// reason is empty for a certified plan, else why the interval failed.
	reason           string
	granted, offered float64

	// Library laps.
	solve      solveInfo
	cert       certInfo
	planBytes  int
	allocBytes uint64
	allocs     uint64

	// Daemon laps.
	ackUs, installMs, certLagMs float64
	updateBytes                 int
}

// result is everything one run measured.
type result struct {
	spec *spec
	seed int64
	// setups holds one sample per lap, in seconds.
	setups []float64
	recs   []intervalRec
	// timedS is the wall-clock length of the timed sections.
	timedS float64
	// totals are the total granted rates of every plan, warm-ups included,
	// in the golden file's form.
	totals goldenTotals
	// tunnels is the size of the tunnel layout.
	tunnels int
	// bubbleRows and bubbleMs come from the traced run's one solve with the
	// library-default bubble sorting network.
	bubbleRows int
	bubbleMs   float64
	// refMs are lap 0's interval times from an untraced repeat of that lap
	// (traced runs only).
	refMs []float64
	// daemon holds what the daemon laps measured besides the intervals.
	daemon daemonTotals
	layer  map[string]float64
}

// add books one timed interval: its time counts towards the timed section
// whether or not it produced a plan, and a failed one has no latency.
func (r *result) add(rec intervalRec) {
	r.timedS += rec.ms / 1e3
	if rec.reason != "" {
		rec.ms = math.Inf(1)
	}
	r.recs = append(r.recs, rec)
}

func (r *result) attempted() int { return len(r.recs) }

// wrongOutput tells the failures that are an incorrect output of the
// program from those that are an operation it declined or lost (an LP
// without optimum, a degraded install, a skipped certification).
var wrongOutput = map[string]bool{
	"certificate-not-exact-ok": true, "wire-round-trip": true, "golden-drift": true,
	"verifier-disagrees": true, "ffc-exceeds-plain-te": true,
	"cert-failure": true, "seq-not-monotone": true, "torn-read": true,
}

// correct reports whether every output the program produced was right.
func (r *result) correct() bool {
	for i := range r.recs {
		if wrongOutput[r.recs[i].reason] {
			return false
		}
	}
	return r.daemon.queryFailures == 0
}

func (r *result) failed() int {
	n := 0
	for i := range r.recs {
		if r.recs[i].reason != "" {
			n++
		}
	}
	return n
}

func (r *result) reasons() map[string]int {
	m := map[string]int{}
	for i := range r.recs {
		if r.recs[i].reason != "" {
			m[r.recs[i].reason]++
		}
	}
	return m
}

func (r *result) latencies() []float64 {
	out := make([]float64, len(r.recs))
	for i := range r.recs {
		out[i] = r.recs[i].ms
	}
	return out
}

// throughput is Σ granted rate / Σ demand over the intervals that produced a
// plan: of every lap, or of lap 0 alone, whose inputs depend on nothing but
// the seed, so that its ratio repeats exactly however many laps a run had
// time for.
func (r *result) throughput(lap0Only bool) float64 {
	var granted, offered float64
	for i := range r.recs {
		if rec := &r.recs[i]; rec.reason == "" && (rec.lap == 0 || !lap0Only) {
			granted += rec.granted
			offered += rec.offered
		}
	}
	return ratio(granted, offered)
}

// endToEnd returns the four metrics a user of the system sees.
func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":          median(r.setups),
		"interval_p50_ms":  median(r.latencies()),
		"plans_per_min":    60 * ratio(float64(r.attempted()-r.failed()), r.timedS),
		"throughput_ratio": r.throughput(false),
	}
}

// runner runs the laps of one workload into res.
type runner struct {
	*bench
	spec *spec
	res  *result
}

// lapSeed derives the demand-drift seed of one lap.
func (rn *runner) lapSeed(lap int) int64 { return rn.seed*1000003 + int64(lap)*7919 }

// run measures sp for at least seconds, in whole laps. A traced run records
// spans, makes the diagnostic calls on lap 0, repeats lap 0 untraced for the
// tracing overhead, and fills res.layer.
func (b *bench) run(sp *spec, trace bool, seconds float64) (*result, error) {
	if sp.daemon && b.ffcd == "" {
		return nil, fmt.Errorf("%s needs -ffcd, the path of a cmd/ffcd binary", sp.name)
	}
	res := &result{spec: sp, seed: b.seed, totals: goldenTotals{}}
	rn := &runner{bench: b, spec: sp, res: res}
	var tr *tracer
	if trace {
		tr = newTracer(sp.name)
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		if err := rn.lap(scope{tr: tr, parent: -1, lap: i}); err != nil {
			return nil, fmt.Errorf("%s lap %d: %w", sp.name, i, err)
		}
		if trace && i == 0 {
			ref := runner{bench: b, spec: sp, res: &result{spec: sp, seed: b.seed, totals: goldenTotals{}}}
			if err := ref.lap(scope{parent: -1}); err != nil {
				return nil, fmt.Errorf("%s untraced lap 0: %w", sp.name, err)
			}
			res.refMs = ref.res.latencies()
		}
	}
	if trace {
		res.layer = layerMetrics(res, tr)
		if err := tr.write(b.outDir, b.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (rn *runner) lap(sc scope) error {
	if rn.spec.daemon {
		return rn.daemonLap(sc)
	}
	return rn.libraryLap(sc)
}

// libEnv is what a library lap's setup builds.
type libEnv struct {
	net    *network
	set    *tunnelSet
	solver *solver
	sess   *session
	series []demands
	prev   *plan
}

func (rn *runner) libraryLap(sc scope) error {
	sp := rn.spec
	var env libEnv
	var err error
	setup := sc.do("setup", func(sc scope) {
		sc.do("topology.gen", func(scope) { env.net = genTopology(sp.net) })
		sc.do("demand.gen", func(scope) {
			env.series = genDemands(env.net, sp.warmups+sp.timed+1, rn.lapSeed(sc.lap))
		})
		sc.do("tunnel.layout", func(scope) { env.set = layout(env.net, env.series) })
		rn.res.tunnels = tunnelCount(env.set)
		sc.do("core.new_solver", func(scope) {
			env.solver = newSolver(env.net, env.set, false)
			env.sess = newSession(env.solver)
		})
		sc.do("demand.calibrate", func(scope) { env.series, err = calibrate(env.solver, env.series) })
		if err != nil {
			return
		}
		// The chain starts from an installed plain-TE plan.
		sc.do("core.plain_te", func(scope) { env.prev, err = plainTE(env.solver, env.series[0]) })
		for i := 1; i <= sp.warmups && err == nil; i++ {
			sc.interval = i
			if rec := rn.interval(sc, &env, i); rec.reason != "" {
				err = fmt.Errorf("warm-up interval %d failed: %s", i, rec.reason)
			}
		}
	})
	if err != nil {
		return err
	}
	rn.res.setups = append(rn.res.setups, setup.Seconds())

	for i := sp.warmups + 1; i <= sp.warmups+sp.timed; i++ {
		sc.interval = i
		if sp.freshPrev {
			sc.do("core.plain_te", func(scope) { env.prev, err = plainTE(env.solver, env.series[i-1]) })
			if err != nil {
				return err
			}
		}
		prev := env.prev
		rec := rn.interval(sc, &env, i)
		if sc.tr != nil && sc.lap == 0 && rec.reason == "" {
			if rec.reason, err = rn.diagnostics(sc, &env, i, prev); err != nil {
				return err
			}
		}
		rn.res.add(rec)
	}
	return nil
}

// interval is the unit of work, what ctrl.recompute does for an operator:
// demands + previous installed plan in → Session.Solve → independent
// certificate (must be exact and OK against the previous plan) → encoded
// plan bytes out. Then, untimed, it checks the bytes and the golden total.
// A failed interval keeps the previous plan installed, as ctrl does.
func (rn *runner) interval(sc scope, env *libEnv, i int) intervalRec {
	sp := rn.spec
	dem := env.series[i]
	rec := intervalRec{lap: sc.lap, interval: i, offered: totalDemand(dem)}
	var st *plan
	var blob []byte
	var m0, m1 runtime.MemStats
	took := sc.do("interval", func(sc scope) {
		// Reading the allocation counters stops the world, so only the
		// traced run does it; it is the tracing overhead that is reported.
		if sc.tr != nil {
			sc.diag("runtime.memstats", func(scope) { runtime.ReadMemStats(&m0) })
		}
		var err error
		sc.do("core.solve", func(scope) { st, rec.solve, err = solve(env.sess, dem, sp.prot, env.prev) })
		if sc.tr != nil {
			sc.diag("runtime.memstats", func(scope) { runtime.ReadMemStats(&m1) })
			rec.allocBytes, rec.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		}
		if err != nil {
			rec.reason = "solve-" + rec.solve.Status
			return
		}
		sc.do("check.certify", func(scope) { rec.cert, err = certify(env.net, env.set, st, env.prev, sp.prot, false) })
		if err != nil || !rec.cert.OK || !rec.cert.Exact {
			rec.reason = "certificate-not-exact-ok"
			return
		}
		sc.do("wire.encode", func(scope) { blob, err = encodePlan(env.net, env.set, dem, st) })
		if err != nil {
			rec.reason = "wire-encode"
		}
	})
	rec.ms = took.Seconds() * 1e3
	if rec.reason != "" {
		return rec
	}
	rec.planBytes = len(blob)
	rec.granted = totalRate(st)
	rn.res.totals.note(sp.name, sc.lap, i, rec.granted)
	sc.do("wire.parse", func(scope) {
		back, err := parsePlan(env.net, env.set, blob)
		if err != nil || !sameRates(st, back) {
			rec.reason = "wire-round-trip"
		}
	})
	if want, ok := rn.golden.at(sp.name, sc.lap, i); ok && rec.reason == "" &&
		math.Abs(rec.granted-want) > 1e-6*math.Abs(want) {
		rec.reason = "golden-drift"
	}
	if rec.reason == "" {
		env.prev = st
	}
	return rec
}

// diagnostics makes, after a traced interval, the layer calls the timed
// path never makes: a separate cold and warm model build of the same input,
// the solver-side verifier, the adversarial certifier, a plain-TE solve that
// must grant at least what FFC granted, and once per run a solve with the
// library-default bubble sorting network. It returns the reason the
// interval's plan turned out wrong, if it did.
func (rn *runner) diagnostics(sc scope, env *libEnv, i int, prev *plan) (reason string, err error) {
	sp := rn.spec
	dem, st := env.series[i], env.prev
	sc.diag("diagnostics", func(sc scope) {
		var tmpl *template
		sc.diag("core.build_cold", func(scope) { tmpl = buildCold(env.solver, dem, sp.prot, prev) })
		// Rebinding works only when no input value is a coefficient (kc = 0).
		if tmpl != nil && buildWarm(tmpl, dem, sp.prot, prev) {
			sc.diag("core.build_warm", func(scope) { buildWarm(tmpl, dem, sp.prot, prev) })
		}
		if sp.prot.Ke+sp.prot.Kv > 0 {
			sc.diag("core.verify_dp", func(scope) {
				if !verifyDataPlane(env.net, env.set, st, sp.prot) {
					reason = "verifier-disagrees"
				}
			})
		}
		sc.diag("check.adversarial", func(scope) {
			if c, cerr := certify(env.net, env.set, st, prev, sp.prot, true); cerr != nil || !c.OK {
				reason = "verifier-disagrees"
			}
		})
		sc.diag("core.plain_te", func(scope) {
			var plain *plan
			if plain, err = plainTE(env.solver, dem); err != nil {
				return
			}
			if g, p := totalRate(st), totalRate(plain); g > p+1e-6*math.Max(1, p) {
				reason = "ffc-exceeds-plain-te"
			}
		})
		if i == sp.warmups+1 && err == nil {
			bubble := newSession(newSolver(env.net, env.set, true))
			var info solveInfo
			took := sc.diag("sortnet.bubble_solve", func(scope) { _, info, err = solve(bubble, dem, sp.prot, prev) })
			rn.res.bubbleRows, rn.res.bubbleMs = info.Rows, took.Seconds()*1e3
		}
	})
	return reason, err
}

package main

import "math"

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	bound float64
}

// endToEndDefs are the metrics a user of the system sees, the same on every
// workload. The bounds are three times the widest spread any workload
// showed across ten seeds (see README.md), rounded up.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"interval_p50_ms", "ms", "lower", 0.25},
	{"plans_per_min", "1/min", "higher", 0.25},
	{"throughput_ratio", "ratio", "higher", 0.03},
}

// perLayerDefs are the metrics of single layers, taken from the traced run.
// A metric of a layer a workload does not cross reads 0 there: the ctrl.*
// ones on the library workloads, most others on ffcd-churn.
var perLayerDefs = []metricDef{
	{"topology.gen_ms", "ms", "lower", 0},
	{"demand.gen_ms", "ms", "lower", 0},
	{"demand.calibrate_ms", "ms", "lower", 0},
	{"tunnel.layout_ms", "ms", "lower", 0},
	{"tunnel.tunnels", "count", "lower", 0},

	{"core.solve_ms", "ms", "lower", 0},
	{"core.build_cold_ms", "ms", "lower", 0},
	{"core.build_warm_us", "us", "lower", 0},
	{"core.lp_rows", "count", "lower", 0},
	{"core.lp_vars", "count", "lower", 0},
	{"core.template_reuse_ratio", "ratio", "higher", 0},
	{"core.alloc_mb_per_solve", "MB", "lower", 0},
	{"core.allocs_per_solve", "count", "lower", 0},
	{"core.verify_dp_ms", "ms", "lower", 0},

	{"lp.busy_ms", "ms", "lower", 0},
	{"lp.iters", "count", "lower", 0},
	{"lp.phase1_iters", "count", "lower", 0},
	{"lp.us_per_iter", "us", "lower", 0},
	{"lp.reinversions", "count", "lower", 0},
	{"lp.basis_nnz", "count", "lower", 0},
	{"lp.bound_flips", "count", "lower", 0},
	{"lp.warm_repairs", "count", "lower", 0},
	{"lp.warm_ratio", "ratio", "higher", 0},
	{"lp.not_optimal", "count", "lower", 0},

	{"sortnet.enc_rows", "count", "lower", 0},
	{"sortnet.enc_vars", "count", "lower", 0},
	{"sortnet.bubble_rows", "count", "lower", 0},
	{"sortnet.bubble_solve_ms", "ms", "lower", 0},

	{"check.certify_ms", "ms", "lower", 0},
	{"check.cases_checked", "count", "lower", 0},
	{"check.cases_covered", "count", "higher", 0},
	{"check.us_per_case", "us", "lower", 0},
	{"check.exact_ratio", "ratio", "higher", 0},
	{"check.adversarial_ms", "ms", "lower", 0},

	{"wire.encode_us", "us", "lower", 0},
	{"wire.parse_us", "us", "lower", 0},
	{"wire.plan_bytes", "bytes", "lower", 0},
	{"wire.update_bytes", "bytes", "lower", 0},

	{"ctrl.boot_ms", "ms", "lower", 0},
	{"ctrl.update_ack_us", "us", "lower", 0},
	{"ctrl.install_ms", "ms", "lower", 0},
	{"ctrl.certify_lag_ms", "ms", "lower", 0},
	{"ctrl.solve_mean_ms", "ms", "lower", 0},
	{"ctrl.solve_max_ms", "ms", "lower", 0},
	{"ctrl.overhead_ms", "ms", "lower", 0},
	{"ctrl.degraded_installs", "count", "lower", 0},
	{"ctrl.cert_failures", "count", "lower", 0},
	{"ctrl.cert_skipped", "count", "lower", 0},
	{"ctrl.relayouts", "count", "lower", 0},
	{"ctrl.serve_p50_us", "us", "lower", 0},
	{"ctrl.serve_p99_us", "us", "lower", 0},
	{"ctrl.serve_late_us", "us", "lower", 0},
	{"ctrl.queries", "count", "higher", 0},
	{"ctrl.query_failures", "count", "lower", 0},
	{"ctrl.peak_rss_mb", "MB", "lower", 0},
	{"ctrl.cpu_s", "s", "lower", 0},

	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},

	// The highest percentile of the interval latency that has ten samples
	// beyond it, and which percentile that is.
	{"interval.tail_ms", "ms", "lower", 0},
	{"interval.tail_pct", "%", "higher", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.coverage_pct", "%", "higher", 0},
}

// layerMetrics turns a traced run into the per-layer metrics. Times are
// medians over every traced lap. Counts are taken over lap 0's timed
// intervals only: its inputs depend on nothing but the seed, so the counts
// repeat exactly however many laps the run had time for.
func layerMetrics(r *result, tr *tracer) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = 0
	}
	m["topology.gen_ms"] = median(tr.durations("topology.gen"))
	m["demand.gen_ms"] = median(tr.durations("demand.gen"))
	m["demand.calibrate_ms"] = median(tr.durations("demand.calibrate"))
	m["tunnel.layout_ms"] = median(tr.durations("tunnel.layout"))
	m["tunnel.tunnels"] = float64(r.tunnels)

	var lap0 []*intervalRec
	var planBytes, updateBytes, lats []float64
	for i := range r.recs {
		rec := &r.recs[i]
		if rec.lap == 0 {
			lap0 = append(lap0, rec)
		}
		if rec.reason == "" {
			planBytes = append(planBytes, float64(rec.planBytes))
			updateBytes = append(updateBytes, float64(rec.updateBytes))
			lats = append(lats, rec.ms)
		}
	}
	m["wire.plan_bytes"] = median(planBytes)
	m["wire.update_bytes"] = median(updateBytes)

	// The tail of the intervals that produced a plan; failures have their
	// own counts.
	tail := tailPercentile(len(lats))
	m["interval.tail_pct"] = tail
	m["interval.tail_ms"] = percentile(lats, tail)

	// The traced lap 0 against its untraced repeat, diagnostics left out
	// (they sit outside the interval spans).
	var traced0 float64
	for _, rec := range lap0 {
		if rec.reason == "" {
			traced0 += rec.ms
		}
	}
	var ref0 float64
	for i, ms := range r.refMs {
		if i < len(lap0) && lap0[i].reason == "" {
			ref0 += ms
		}
	}
	m["trace.overhead_pct"] = 100 * ratio(traced0-ref0, ref0)
	_, m["trace.coverage_pct"] = tr.selfTimes()
	m["proc.peak_rss_mb"], m["proc.cpu_s"] = procUsage("self")

	if r.spec.daemon {
		daemonLayers(m, r)
	} else {
		libraryLayers(m, r, tr, lap0)
	}
	for name, v := range m {
		if math.IsNaN(v) { // a median of no samples: the workload never makes that call
			m[name] = 0
		}
	}
	return m
}

func libraryLayers(m map[string]float64, r *result, tr *tracer, lap0 []*intervalRec) {
	solveMs, certifyMs := tr.durations("core.solve"), tr.durations("check.certify")
	m["core.solve_ms"] = median(solveMs)
	m["core.build_cold_ms"] = median(tr.durations("core.build_cold"))
	m["core.build_warm_us"] = 1e3 * median(tr.durations("core.build_warm"))
	m["core.verify_dp_ms"] = median(tr.durations("core.verify_dp"))
	m["check.certify_ms"] = median(certifyMs)
	m["check.adversarial_ms"] = median(tr.durations("check.adversarial"))
	m["wire.encode_us"] = 1e3 * median(tr.durations("wire.encode"))
	m["wire.parse_us"] = 1e3 * median(tr.durations("wire.parse"))
	m["sortnet.bubble_rows"] = float64(r.bubbleRows)
	m["sortnet.bubble_solve_ms"] = r.bubbleMs

	var allocMB, allocs []float64
	var iters, cases float64
	for i := range r.recs {
		rec := &r.recs[i]
		allocMB = append(allocMB, float64(rec.allocBytes)/(1<<20))
		allocs = append(allocs, float64(rec.allocs))
		iters += float64(rec.solve.Iters)
		cases += float64(rec.cert.Checked)
	}
	m["core.alloc_mb_per_solve"] = median(allocMB)
	m["core.allocs_per_solve"] = median(allocs)

	var solves, reused, warm, exact, certs float64
	for _, rec := range lap0 {
		s := rec.solve
		solves++
		m["core.lp_rows"] += float64(s.Rows)
		m["core.lp_vars"] += float64(s.Vars)
		m["sortnet.enc_rows"] += float64(s.EncRows)
		m["sortnet.enc_vars"] += float64(s.EncVars)
		m["lp.iters"] += float64(s.Iters)
		m["lp.phase1_iters"] += float64(s.Phase1)
		m["lp.reinversions"] += float64(s.Reinversions)
		m["lp.bound_flips"] += float64(s.BoundFlips)
		m["lp.warm_repairs"] += float64(s.WarmRepairs)
		m["lp.basis_nnz"] = max(m["lp.basis_nnz"], float64(s.BasisNnz))
		if s.Reused {
			reused++
		}
		if s.Warm {
			warm++
		}
		if rec.reason == "solve-"+s.Status {
			m["lp.not_optimal"]++
			continue
		}
		certs++
		m["check.cases_checked"] += float64(rec.cert.Checked)
		m["check.cases_covered"] += float64(rec.cert.Covered)
		if rec.cert.Exact {
			exact++
		}
	}
	// Sizes are per solve; the work counts stay totals of lap 0.
	for _, name := range []string{"core.lp_rows", "core.lp_vars", "sortnet.enc_rows", "sortnet.enc_vars"} {
		m[name] = ratio(m[name], solves)
	}
	m["core.template_reuse_ratio"] = ratio(reused, solves)
	m["lp.warm_ratio"] = ratio(warm, solves)
	m["check.exact_ratio"] = ratio(exact, certs)

	// lp.busy is the solve span minus the model build of the same input,
	// timed from outside: the warm rebind when the template was reused,
	// the cold formulation otherwise. Extraction stays in.
	build := m["core.build_cold_ms"]
	if reused == solves {
		build = m["core.build_warm_us"] / 1e3
	}
	m["lp.busy_ms"] = m["core.solve_ms"] - build
	m["lp.us_per_iter"] = 1e3 * ratio(sum(solveMs)-build*float64(len(solveMs)), iters)
	m["check.us_per_case"] = 1e3 * ratio(sum(certifyMs), cases)
}

func daemonLayers(m map[string]float64, r *result) {
	d := &r.daemon
	var ack, install, lag []float64
	for i := range r.recs {
		if rec := &r.recs[i]; rec.reason == "" {
			ack = append(ack, rec.ackUs)
			install = append(install, rec.installMs)
			lag = append(lag, rec.certLagMs)
		}
	}
	m["ctrl.boot_ms"] = median(d.bootMs)
	m["ctrl.update_ack_us"] = median(ack)
	m["ctrl.install_ms"] = median(install)
	m["ctrl.certify_lag_ms"] = median(lag)
	m["ctrl.solve_mean_ms"] = mean(d.solveMeanMs)
	m["ctrl.solve_max_ms"] = maxOf(d.solveMaxMs)
	// What an install costs beyond its solve: queue, apply, encode, trace.
	m["ctrl.overhead_ms"] = mean(install) - m["ctrl.solve_mean_ms"]
	m["ctrl.degraded_installs"] = float64(d.degraded)
	m["ctrl.cert_failures"] = float64(d.certFailures)
	m["ctrl.cert_skipped"] = float64(d.certSkipped)
	m["ctrl.relayouts"] = ratio(float64(d.relayouts), float64(len(d.bootMs)))
	m["ctrl.serve_p50_us"] = median(d.serveUs)
	m["ctrl.serve_p99_us"] = percentile(d.serveUs, 99)
	m["ctrl.serve_late_us"] = median(d.lateUs)
	m["ctrl.queries"] = float64(d.queries)
	m["ctrl.query_failures"] = float64(d.queryFailures)
	m["ctrl.peak_rss_mb"] = maxOf(d.peakRSSMB)
	m["ctrl.cpu_s"] = mean(d.cpuS)
}

package ctrl

import (
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/wire"
)

var (
	obsCertRuns       = obs.NewCounter("ctrl.cert_runs")
	obsCertFailures   = obs.NewCounter("ctrl.cert_failures")
	obsCertWorstSlack = obs.NewGauge("ctrl.cert_worst_slack_milli")
	// obsCertTime is each certification's run time, all of it spent on the
	// install path, inside the control step.
	obsCertTime = obs.NewHistogram("ctrl.cert_time")
)

// certify checks st at protection prot against prev (the stale
// control-plane configuration) and the down sets, on the current tunnel
// set, and records the verdict in stats and obs. It returns the
// certificate when st passes, nil on a violation or checker error.
func (c *Controller) certify(seq int64, st, prev *core.State, prot core.Protection, dl map[topology.LinkID]bool, ds map[topology.SwitchID]bool) *check.Certificate {
	start := time.Now()
	cert, err := check.Certify(c.net, c.set, st, prev, check.Params{
		Prot:         prot,
		RateLimiter:  c.cfg.Opts.RateLimiter,
		Capacity:     c.certCapacity,
		DownLinks:    dl,
		DownSwitches: ds,
	})
	elapsed := time.Since(start)
	c.stats.certSumNs.Add(elapsed.Nanoseconds())
	if err == nil {
		c.stats.certCasesLast.Store(cert.CasesChecked)
	}
	c.stats.certRuns.Add(1)
	obsCertRuns.Inc()
	obsCertTime.ObserveDuration(elapsed)
	if err != nil {
		c.stats.certFailures.Add(1)
		obsCertFailures.Inc()
		c.cfg.Logf("ctrl: CERT ERROR plan seq=%d: %v", seq, err)
		return nil
	}
	if !cert.OK {
		c.stats.certFailures.Add(1)
		obsCertFailures.Inc()
		v := cert.Violation
		c.cfg.Logf("ctrl: CERT FAILED plan seq=%d (%s, kc=%d ke=%d kv=%d): link %s load %.6g > cap %.6g under %v",
			seq, cert.Mode, cert.Kc, cert.Ke, cert.Kv,
			v.LinkName, v.Load, v.Capacity, v.Faults)
		return nil
	}
	obsCertWorstSlack.Set(int64(cert.WorstSlack * 1000))
	return cert
}

// writeTrace appends one NDJSON record for an install when a trace writer
// is configured. Install is serialized (New, then the single recompute
// goroutine), so no locking.
func (c *Controller) writeTrace(p *Plan, dl map[topology.LinkID]bool, ds map[topology.SwitchID]bool) {
	if c.cfg.TraceWriter == nil {
		return
	}
	links, sws := wire.NamedDownSets(c.net, dl, ds)
	rec := &wire.TraceRecord{
		Seq:          p.Seq,
		Time:         p.InstalledAt,
		Kc:           p.Prot.Kc,
		Ke:           p.Prot.Ke,
		Kv:           p.Prot.Kv,
		Degraded:     p.Degraded,
		Restored:     p.Restored,
		DownLinks:    links,
		DownSwitches: sws,
		State:        p.File,
	}
	if err := wire.WriteTraceRecord(c.cfg.TraceWriter, rec); err != nil {
		c.cfg.Logf("ctrl: writing trace record seq=%d: %v", p.Seq, err)
	}
}

package ctrl

import (
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/wire"
)

var (
	obsCertRuns       = obs.NewCounter("ctrl.cert_runs")
	obsCertFailures   = obs.NewCounter("ctrl.cert_failures")
	obsCertWorstSlack = obs.NewGauge("ctrl.cert_worst_slack_milli")
	// obsCertMs is each certification's run time in whole milliseconds,
	// all of it spent on the install path between solve and publish.
	obsCertMs = obs.NewHistogram("ctrl.cert_ms")
)

// publish is the only way a solved or restored plan reaches c.plan: with
// Config.Certify set it certifies st first and installs it only if the
// certificate passes, so no uncertified plan is ever served. It reports
// whether st was installed; on false the serving plan is unchanged.
func (c *Controller) publish(st *core.State, dem demand.Matrix, prot core.Protection, m installMeta) bool {
	if c.cfg.Certify != nil {
		m.cert = c.certify(m.seq, st, m.prev, c.certParams(prot, m.degraded, m.downLinks, m.downSwitches))
		if m.cert == nil {
			return false
		}
	}
	c.install(st, dem, prot, m)
	return true
}

// certParams instantiates Config.Certify for one install. Degraded plans
// (last-good fallbacks) only promise congestion-freedom under the faults
// they degraded around, so they certify at zero protection; everything
// else certifies at the protection it was solved for.
func (c *Controller) certParams(prot core.Protection, degraded string,
	dl map[topology.LinkID]bool, ds map[topology.SwitchID]bool) check.Params {
	p := *c.cfg.Certify
	p.Prot = prot
	if degraded != "" {
		p.Prot = core.None
	}
	p.RateLimiter = c.cfg.Opts.RateLimiter
	p.DownLinks = dl
	p.DownSwitches = ds
	return p
}

// certify checks st against prev (the stale control-plane configuration)
// on the current tunnel set and records the verdict in stats and obs. It
// returns the certificate when st passes, nil on a violation or checker
// error.
func (c *Controller) certify(seq int64, st, prev *core.State, p check.Params) *check.Certificate {
	start := time.Now()
	cert, err := check.Certify(c.net, c.set, st, prev, p)
	elapsed := time.Since(start)
	c.stats.certSumNs.Add(elapsed.Nanoseconds())
	if err == nil {
		c.stats.certCasesLast.Store(cert.CasesChecked)
	}
	c.stats.certRuns.Add(1)
	obsCertRuns.Inc()
	obsCertMs.Observe(elapsed.Milliseconds())
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

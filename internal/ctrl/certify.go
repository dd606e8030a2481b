package ctrl

import (
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

var (
	obsCertRuns       = obs.NewCounter("ctrl.cert_runs")
	obsCertFailures   = obs.NewCounter("ctrl.cert_failures")
	obsCertSkipped    = obs.NewCounter("ctrl.cert_skipped")
	obsCertWorstSlack = obs.NewGauge("ctrl.cert_worst_slack_milli")
	// obsCertMs is each certification's run time in whole milliseconds;
	// with the cert_ms_mean stat it tells the certifier's own cost from the
	// time a plan waited in its queue.
	obsCertMs = obs.NewHistogram("ctrl.cert_ms")
)

// certJob carries everything a certification needs, captured at install
// time: the installed plan, the previously installed state (the control
// plane's stale configuration), and the tunnel set the plan was laid out
// on — a later relayout must not change what an in-flight job checks.
type certJob struct {
	plan   *Plan
	prev   *core.State
	set    *tunnel.Set
	params check.Params
}

// startCertifier launches the async certification goroutine when
// Config.Certify is set. Called from Start; installs before Start (the
// boot placeholder, the restored snapshot) are handled synchronously in
// New instead.
func (c *Controller) startCertifier() {
	if c.cfg.Certify == nil {
		return
	}
	c.certCh = make(chan certJob, 16)
	c.certDone = make(chan struct{})
	go func() {
		defer close(c.certDone)
		for job := range c.certCh {
			c.runCert(job)
		}
	}()
}

// stopCertifier drains queued jobs and waits for the goroutine to exit.
func (c *Controller) stopCertifier() {
	if c.certCh == nil {
		return
	}
	close(c.certCh)
	<-c.certDone
	c.certCh = nil
}

// enqueueCert hands a job to the certifier without ever blocking the
// install path; a full queue drops the job and counts a skip.
func (c *Controller) enqueueCert(job certJob) {
	if c.certCh == nil {
		return
	}
	select {
	case c.certCh <- job:
	default:
		c.stats.certSkipped.Add(1)
		obsCertSkipped.Inc()
	}
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

// runCert certifies one installed plan and records the verdict in stats
// and obs. Returns the certificate's OK (false on checker error too).
func (c *Controller) runCert(job certJob) bool {
	start := time.Now()
	cert, err := check.Certify(c.net, job.set, job.plan.State, job.prev, job.params)
	elapsed := time.Since(start)
	// Time and cases first: a client that sees cert_runs = n reads run n's.
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
		c.cfg.Logf("ctrl: CERT ERROR plan seq=%d: %v", job.plan.Seq, err)
		return false
	}
	if !cert.OK {
		c.stats.certFailures.Add(1)
		obsCertFailures.Inc()
		v := cert.Violation
		c.cfg.Logf("ctrl: CERT FAILED plan seq=%d (%s, kc=%d ke=%d kv=%d): link %s load %.6g > cap %.6g under %v",
			job.plan.Seq, cert.Mode, cert.Kc, cert.Ke, cert.Kv,
			v.LinkName, v.Load, v.Capacity, v.Faults)
		return false
	}
	obsCertWorstSlack.Set(int64(cert.WorstSlack * 1000))
	return true
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

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// readerQPS is the open-loop get_plan rate beside the updates.
	readerQPS = 20
	// linkDownEvery: every 6th update takes a link down, and linkDownFor
	// updates later it comes back — the paper's §8.1 ratio of a 30-minute
	// network-wide link MTBF to a 5-minute TE interval.
	linkDownEvery = 6
	linkDownFor   = 3
)

// daemonTotals is what the daemon laps measure besides the intervals.
type daemonTotals struct {
	bootMs                    []float64
	serveUs, lateUs           []float64
	queries, queryFailures    int
	degraded, relayouts       int64
	certFailures, certSkipped int64
	solveMeanMs, solveMaxMs   []float64
	peakRSSMB, cpuS           []float64
}

// churnInputs generates, from the seed alone, the files one daemon lap hands
// to ffcd and the update frames it streams: a full demand re-draw per
// update, except that every 6th is a link-down restored 3 updates later.
type churnInputs struct {
	topo, demands []byte
	updates       []*update
	// frames are the updates as written on the wire.
	frames [][]byte
	// offered is the demand the daemon holds after each update.
	offered []float64
	// tunnels is the size of the layout the calibration used; the daemon
	// lays out the same flows with the same defaults.
	tunnels int
}

func genChurnInputs(sc scope, sp *spec, seed int64) (*churnInputs, error) {
	var (
		net    *network
		series []demands
		err    error
	)
	n := sp.warmups + sp.timed
	sc.do("topology.gen", func(scope) { net = genTopology(sp.net) })
	sc.do("demand.gen", func(scope) { series = genDemands(net, n+1, seed) })
	var set *tunnelSet
	sc.do("tunnel.layout", func(scope) { set = layout(net, series) })
	sc.do("demand.calibrate", func(scope) { series, err = calibrate(newSolver(net, set, false), series) })
	if err != nil {
		return nil, err
	}
	in := &churnInputs{tunnels: tunnelCount(set)}
	if in.topo, err = encodeTopology(net); err != nil {
		return nil, err
	}
	if in.demands, err = encodeDemands(net, series[0]); err != nil {
		return nil, err
	}
	links := interSiteLinks(net)
	rng := rand.New(rand.NewSource(seed))
	offered := totalDemand(series[0])
	var down *[2]string
	for k := 1; k <= n; k++ {
		var u *update
		switch {
		case k%linkDownEvery == 0:
			down = &links[rng.Intn(len(links))]
			u = linkUpdate(down[0], down[1], false)
		case k%linkDownEvery == linkDownFor && down != nil:
			u = linkUpdate(down[0], down[1], true)
			down = nil
		default:
			u = demandUpdate(net, series[k])
			offered = totalDemand(series[k])
		}
		frame, err := encodeUpdate(u)
		if err != nil {
			return nil, err
		}
		in.updates = append(in.updates, u)
		in.frames = append(in.frames, frame)
		in.offered = append(in.offered, offered)
	}
	return in, nil
}

// write puts the inputs where the daemon (and a reader of the run) finds
// them, and returns the topology and demand paths.
func (in *churnInputs) write(dir string) (topo, dem string, err error) {
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	topo, dem = filepath.Join(dir, "topo.json"), filepath.Join(dir, "demands.json")
	if err = os.WriteFile(topo, in.topo, 0o644); err != nil {
		return
	}
	if err = os.WriteFile(dem, in.demands, 0o644); err != nil {
		return
	}
	err = os.WriteFile(filepath.Join(dir, "updates.ndjson"), append(bytes.Join(in.frames, []byte("\n")), '\n'), 0o644)
	return
}

// daemon is one running ffcd with the two connections of the workload.
type daemon struct {
	cmd  *exec.Cmd
	logs sync.WaitGroup
	// lastLog is the daemon's last log line, valid once logs is done.
	lastLog         string
	updater, reader *client
}

// startDaemon runs ffcd with the flags an operator following the README
// uses and nothing else, and waits for its "listening on " log line.
func startDaemon(bin, topo, dem string, prot protection) (*daemon, error) {
	d := &daemon{}
	d.cmd = exec.Command(bin, "-topo", topo, "-demands", dem, "-listen", "127.0.0.1:0",
		"-ke", strconv.Itoa(prot.Ke), "-kv", strconv.Itoa(prot.Kv), "-certify", "-interval", "1h")
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrCh := make(chan string, 1)
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stderr)
		last, sent := "", false
		for sc.Scan() {
			last = sc.Text()
			if i := strings.Index(last, "listening on "); i >= 0 && !sent {
				addrCh <- strings.Fields(last[i+len("listening on "):])[0]
				sent = true
			}
		}
		d.lastLog = last
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("ffcd exited before listening: %s", d.lastLog)
		}
		for _, c := range []**client{&d.updater, &d.reader} {
			if *c, err = dial(addr); err != nil {
				d.stop()
				return nil, err
			}
		}
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("ffcd did not listen within 20 s")
	}
	return d, nil
}

// stop drains the daemon with SIGINT and waits until it has exited.
func (d *daemon) stop() {
	for _, c := range []*client{d.updater, d.reader} {
		if c != nil {
			c.Close()
		}
	}
	d.cmd.Process.Signal(syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		d.logs.Wait()
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// procUsage reads VmHWM and utime+stime of a process ("self" for this one).
// The clock tick is Linux's fixed user-visible 100 Hz.
func procUsage(pid string) (peakRSSMB, cpuS float64) {
	if blob, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, _ := strconv.ParseFloat(f[1], 64)
				peakRSSMB = kb / 1024
			}
		}
	}
	if blob, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the line.
		if i := strings.LastIndexByte(string(blob), ')'); i >= 0 {
			if f := strings.Fields(string(blob[i+1:])); len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuS = (ut + st) / 100
			}
		}
	}
	return
}

// awaitPlan polls the stats query until plan seq is installed, and then
// until the async certifier has caught up with it; it returns both waits.
func awaitPlan(c *client, seq int64) (install, certLag time.Duration, st daemonStats, err error) {
	start := time.Now()
	var installedAt time.Time
	for {
		if st, err = queryStats(c); err != nil {
			return
		}
		now := time.Now()
		if st.Seq >= seq && installedAt.IsZero() {
			installedAt = now
		}
		if !installedAt.IsZero() && st.CertRuns+st.CertSkipped >= seq {
			return installedAt.Sub(start), now.Sub(installedAt), st, nil
		}
		if now.Sub(start) > time.Minute {
			err = fmt.Errorf("plan seq %d not installed and certified within a minute (daemon at seq %d, %d certified)", seq, st.Seq, st.CertRuns)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// churnLap is the state of one daemon lap.
type churnLap struct {
	rn  *runner
	in  *churnInputs
	d   *daemon
	seq int64
	// certFailures and certSkipped are the daemon's counts after the last
	// update, so that a new one is charged to the update that caused it.
	certFailures, certSkipped int64
}

// update streams frame k (1-based) closed-loop: the interval runs from the
// frame being written until a plan with the next seq is installed and the
// certifier has caught up with it. The plan is then fetched and checked.
func (l *churnLap) update(sc scope, k int) (intervalRec, error) {
	sp := l.rn.spec
	rec := intervalRec{lap: sc.lap, interval: k, offered: l.in.offered[k-1], updateBytes: len(l.in.frames[k-1])}
	l.seq++
	var stats daemonStats
	var err error
	took := sc.do("interval", func(sc scope) {
		ack := sc.do("ctrl.update_ack", func(scope) { err = sendUpdate(l.d.updater, l.in.updates[k-1]) })
		if err != nil {
			return
		}
		var install, lag time.Duration
		sc.do("ctrl.await_plan", func(scope) { install, lag, stats, err = awaitPlan(l.d.updater, l.seq) })
		rec.ackUs = float64(ack.Nanoseconds()) / 1e3
		rec.installMs = (ack + install).Seconds() * 1e3
		rec.certLagMs = lag.Seconds() * 1e3
	})
	rec.ms = took.Seconds() * 1e3
	if err != nil {
		return rec, err
	}
	var served servedPlan
	sc.do("ctrl.get_plan", func(scope) { served, err = queryPlan(l.d.updater) })
	switch {
	case err != nil:
		rec.reason = "torn-read"
	case served.Seq != l.seq:
		rec.reason = "seq-not-monotone"
	case served.Degraded != "":
		rec.reason = "degraded-" + served.Degraded
	case served.Prot != sp.prot:
		rec.reason = "protection-dropped"
	case stats.CertFailures > l.certFailures:
		rec.reason = "cert-failure"
	case stats.CertSkipped > l.certSkipped:
		rec.reason = "cert-skipped"
	}
	l.certFailures, l.certSkipped = stats.CertFailures, stats.CertSkipped
	rec.planBytes = served.Bytes
	rec.granted = served.TotalRate
	l.rn.res.totals.note(sp.name, sc.lap, k, rec.granted)
	if want, ok := l.rn.golden.at(sp.name, sc.lap, k); ok && rec.reason == "" &&
		math.Abs(rec.granted-want) > 1e-6*math.Abs(want) {
		rec.reason = "golden-drift"
	}
	return rec, nil
}

// read is the open-loop reader: one get_plan every 1/readerQPS s beside the
// updates until stop closes, each timed from when it was due, each reply
// checked for a torn plan and a seq that went backwards.
func (l *churnLap) read(stop <-chan struct{}, tot *daemonTotals) {
	start := time.Now()
	last := int64(0)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * time.Second / readerQPS)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		p, err := queryPlan(l.d.reader)
		tot.queries++
		if err != nil || p.Seq < last {
			tot.queryFailures++
			continue
		}
		last = p.Seq
		tot.lateUs = append(tot.lateUs, float64(sent.Sub(due).Nanoseconds())/1e3)
		tot.serveUs = append(tot.serveUs, float64(time.Since(due).Nanoseconds())/1e3)
	}
}

func (rn *runner) daemonLap(sc scope) error {
	sp := rn.spec
	tot := &rn.res.daemon
	l := &churnLap{rn: rn, seq: 1}
	defer func() {
		if l.d != nil {
			l.d.stop()
		}
	}()
	var err error
	setup := sc.do("setup", func(sc scope) {
		if l.in, err = genChurnInputs(sc, sp, rn.lapSeed(sc.lap)); err != nil {
			return
		}
		rn.res.tunnels = l.in.tunnels
		var topo, dem string
		if topo, dem, err = l.in.write(filepath.Join(rn.outDir, sp.name)); err != nil {
			return
		}
		boot := sc.do("ctrl.boot", func(scope) {
			if l.d, err = startDaemon(rn.ffcd, topo, dem, sp.prot); err == nil {
				_, _, _, err = awaitPlan(l.d.updater, l.seq)
			}
		})
		tot.bootMs = append(tot.bootMs, boot.Seconds()*1e3)
		for k := 1; k <= sp.warmups && err == nil; k++ {
			sc.interval = k
			var rec intervalRec
			if rec, err = l.update(sc, k); err == nil && rec.reason != "" {
				err = fmt.Errorf("warm-up update %d failed: %s", k, rec.reason)
			}
		}
	})
	if err != nil {
		return err
	}
	rn.res.setups = append(rn.res.setups, setup.Seconds())
	before, err := queryStats(l.d.updater)
	if err != nil {
		return err
	}

	stopReader := make(chan struct{})
	var reads daemonTotals
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		l.read(stopReader, &reads)
	}()
	for k := sp.warmups + 1; k <= sp.warmups+sp.timed && err == nil; k++ {
		sc.interval = k
		var rec intervalRec
		if rec, err = l.update(sc, k); err == nil {
			rn.res.add(rec)
		}
	}
	close(stopReader)
	reader.Wait()
	if err != nil {
		return err
	}
	tot.queries += reads.queries
	tot.queryFailures += reads.queryFailures
	tot.serveUs = append(tot.serveUs, reads.serveUs...)
	tot.lateUs = append(tot.lateUs, reads.lateUs...)

	stats, err := queryStats(l.d.updater)
	if err != nil {
		return err
	}
	tot.degraded += stats.Degraded
	tot.relayouts += stats.Relayouts
	tot.certFailures += stats.CertFailures
	tot.certSkipped += stats.CertSkipped
	// The daemon's own account of its solves during the timed updates.
	tot.solveMeanMs = append(tot.solveMeanMs, ratio(stats.SolveSumMs-before.SolveSumMs, float64(stats.Solves-before.Solves)))
	tot.solveMaxMs = append(tot.solveMaxMs, stats.SolveMaxMs)
	rss, cpu := procUsage(strconv.Itoa(l.d.cmd.Process.Pid))
	tot.peakRSSMB = append(tot.peakRSSMB, rss)
	tot.cpuS = append(tot.cpuS, cpu)
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// workload is one named benchmark workload. Tenants is the admission
// stream shape its traced run replays through the admit layers (paper-eval
// has no stream of its own and borrows admit-mem's).
type workload struct {
	durable bool
	tenants []tenantSpec
	run     func(options, workload, *report) error
}

// memTenants hold two M=32 tenants near capacity, one per placement policy.
var memTenants = []tenantSpec{
	{Name: "mem-ff", M: 32, Policy: "rta-ff", Target: 300},
	{Name: "mem-wf", M: 32, Policy: "rta-wf", Target: 300},
}

// durableTenants are small, so the engine is cheap and a request's cost is
// the HTTP path, the socket and the journal append of each mutation.
var durableTenants = []tenantSpec{
	{Name: "dur-a", M: 4, Policy: "rta-ff", Target: 34},
	{Name: "dur-b", M: 4, Policy: "rta-ff", Target: 34},
}

var workloads = map[string]workload{
	"paper-eval":    {tenants: memTenants, run: runPaperEval},
	"admit-mem":     {tenants: memTenants, run: runAdmit},
	"admit-durable": {durable: true, tenants: durableTenants, run: runAdmit},
}

// setupRepeats is how many times an admission run spawns the daemon to
// measure set-up; the last daemon serves the run.
const setupRepeats = 7

// freshDir returns an empty directory under the work directory.
func freshDir(o options, name string) (string, error) {
	dir := filepath.Join(o.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// startServing spawns admitd (journaling into a fresh directory when the
// workload is durable) and creates the tenants, setupRepeats times, and
// returns the last daemon, its data directory and the median set-up time.
func startServing(o options, w workload, fl *fleet, tag string) (*daemon, string, float64, error) {
	var d *daemon
	var dataDir string
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop(syscall.SIGTERM)
		}
		if w.durable {
			var err error
			if dataDir, err = freshDir(o, fmt.Sprintf("%s-data-%d", tag, i)); err != nil {
				return nil, "", 0, err
			}
		}
		start := time.Now()
		var err error
		if d, err = fl.spawn(o.admitd, o.work, dataDir); err != nil {
			return nil, "", 0, err
		}
		if err := d.createTenants(w.tenants); err != nil {
			return nil, "", 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, dataDir, median(times), nil
}

// crashRestart SIGKILLs the daemon and restarts it on the same data,
// returning the new daemon and the restart-to-ready time. For a durable
// workload the canonical state must survive the crash.
func crashRestart(o options, w workload, fl *fleet, d *daemon, dataDir string, rep *report) (*daemon, float64, error) {
	before, err := d.canon()
	if err != nil {
		return nil, 0, err
	}
	d.stop(syscall.SIGKILL)
	start := time.Now()
	d2, err := fl.spawn(o.admitd, o.work, dataDir)
	if err != nil {
		return nil, 0, err
	}
	restart := time.Since(start).Seconds()
	if w.durable {
		after, err := d2.canon()
		if err != nil {
			return nil, 0, err
		}
		if after != before {
			rep.fail("crash check: canonical state after SIGKILL and restart differs from before")
		} else {
			rep.info("crash check: canonical state identical after SIGKILL and restart")
		}
	}
	return d2, restart, nil
}

// runAdmit is the end-to-end run of the admission workloads: set up the
// daemon, fill each tenant, drive the closed loop for the measured time,
// then check every verdict (and, durable, the crash) before reporting.
func runAdmit(o options, w workload, rep *report) error {
	var fl fleet
	defer fl.stopAll()
	d, dataDir, setup, err := startServing(o, w, &fl, "run")
	if err != nil {
		return err
	}
	logs := newTenantLogs(w.tenants, o.seed)
	defer func() {
		for _, tl := range logs {
			tl.close()
		}
	}()
	warmLoad(d.base, logs)
	start := time.Now()
	dur := timedLoad(d.base, logs, time.Duration(o.seconds)*time.Second)
	hwm, err := d.hwmMB()
	if err != nil {
		return err
	}
	canon, err := d.canon()
	if err != nil {
		return err
	}
	if w.durable {
		var recoverS float64
		if d, recoverS, err = crashRestart(o, w, &fl, d, dataDir, rep); err != nil {
			return err
		}
		rep.info("recover_s (SIGKILL, restart until /readyz is 200) %.4f s", recoverS)
	}
	d.stop(syscall.SIGTERM)

	sent, failed := loadTotals(logs)
	failStopped(logs, rep)
	rep.info("warm-up: %d requests sent, %d succeeded, %d failed", sent[0], sent[0]-failed[0], failed[0])
	rep.info("timed:   %d requests sent, %d succeeded, %d failed in %.3fs", sent[1], sent[1]-failed[1], failed[1], dur.Seconds())

	oracleStart := time.Now()
	replayed, bad, err := verifyVerdicts(logs, canon)
	if err != nil {
		return err
	}
	rep.info("oracle:  %d ops replayed in-process in %.3fs, %d mismatches", replayed, time.Since(oracleStart).Seconds(), len(bad))
	for _, b := range bad {
		rep.fail("verdict oracle: %s", b)
	}

	for _, class := range []string{"accept", "reject", "remove"} {
		c := summarize(timedLatencies(logs, class))
		rep.info("%s_p50_us %.1f us  %s_p%g_us %.1f us  (n=%d, whole timed phase)", class, c.P50, class, c.TailP, c.Tail, c.N)
	}
	wins := windows(logs, start, dur)
	var rates []float64
	for _, w := range wins {
		rates = append(rates, float64(len(w)))
	}
	all := summarizeWindows(wins)
	attempted := int64(sent[0] + sent[1])
	nFailed := int64(failed[0] + failed[1])
	rep.info("error_rate %.6f", float64(nFailed)/float64(attempted))
	rep.attempted, rep.failed = attempted, nFailed
	rep.set("setup_s", setup, "s")
	rep.set("peak_rss_mb", hwm, "MB")
	rep.set("ops_per_s", median(rates), "1/s")
	rep.set("p50_us", all.P50, "us")
	rep.set("success_ratio", float64(attempted-nFailed)/float64(attempted), "ratio")
	rep.info("ops_per_s and p50_us are medians over %d one-second windows of %d requests; tail p%g %.1f us (median over the windows, not bounded: see README)",
		len(wins), all.N, all.TailP, all.Tail)
	return nil
}

// failStopped fails the run for every tenant that stopped on an error: the
// workloads are built so that no request fails, and a tenant that stops
// early takes its share of the load out of the measurement.
func failStopped(logs []*tenantLog, rep *report) {
	for _, tl := range logs {
		if tl.stopped != nil {
			rep.fail("tenant stopped early: %v", tl.stopped)
		}
	}
}

// serverMetrics scrapes the daemon's JSON /metrics.
func serverMetrics(d *daemon) (counters map[string]int64, p50 map[string]float64, err error) {
	code, raw, err := d.do("GET", "/metrics", nil, map[string]string{"Accept": "application/json"})
	if err != nil || code != 200 {
		return nil, nil, fmt.Errorf("/metrics: code %d err %v", code, err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name string  `json:"name"`
			P50  float64 `json:"p50"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, nil, fmt.Errorf("/metrics: %w", err)
	}
	counters, p50 = map[string]int64{}, map[string]float64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, h := range snap.Histograms {
		p50[h.Name] = h.P50
	}
	return counters, p50, nil
}

// daemonLayers is the traced run's daemon phase: a shorter closed loop
// against admitd in the workload's mode, then /metrics, CPU split between
// client and server, and a SIGKILL/restart.
func daemonLayers(o options, w workload, rep *report, handlerP50 float64) (int64, error) {
	var fl fleet
	defer fl.stopAll()
	d, dataDir, _, err := startServing(o, w, &fl, "traced")
	if err != nil {
		return 0, err
	}
	logs := newTenantLogs(w.tenants, o.seed)
	defer func() {
		for _, tl := range logs {
			tl.close()
		}
	}()
	warmLoad(d.base, logs)
	cpu0 := selfCPU()
	scpu0, err := d.cpuSeconds()
	if err != nil {
		return 0, err
	}
	timedLoad(d.base, logs, time.Duration(math.Max(1, float64(o.seconds)/5)*float64(time.Second)))
	cpu1 := selfCPU()
	scpu1, err := d.cpuSeconds()
	if err != nil {
		return 0, err
	}
	counters, p50, err := serverMetrics(d)
	if err != nil {
		return 0, err
	}
	failStopped(logs, rep)
	client := summarize(timedLatencies(logs, ""))
	rep.set("server.gate_queued", float64(counters["admit.gate.queued"]), "count")
	rep.set("server.gate_shed", float64(counters["admit.gate.shed"]), "count")
	rep.set("server.admit_p50_us", p50["admit.http.admit.latency_us"], "us")
	rep.set("server.cpu_s", scpu1-scpu0, "s")
	rep.set("loadgen.cpu_s", cpu1-cpu0, "s")
	rep.set("socket.rtt_us", client.P50-handlerP50, "us")
	rep.info("daemon phase client latency us: %v", client)

	if w.durable {
		// AttachJournal on a copy of the directory the killed daemon left.
		before, err := d.canon()
		if err != nil {
			return 0, err
		}
		d.stop(syscall.SIGKILL)
		copyTo, err := freshDir(o, "traced-copy")
		if err != nil {
			return 0, err
		}
		if err := copyDir(dataDir, copyTo); err != nil {
			return 0, err
		}
		attach, replayed, err := attachTimed(copyTo)
		if err != nil {
			return 0, err
		}
		rep.set("recovery.attach_s", attach, "s")
		rep.set("recovery.replayed_records", float64(replayed), "count")
		start := time.Now()
		d2, err := fl.spawn(o.admitd, o.work, dataDir)
		if err != nil {
			return 0, err
		}
		rep.set("recovery.restart_s", time.Since(start).Seconds(), "s")
		if after, err := d2.canon(); err != nil {
			return 0, err
		} else if after != before {
			rep.fail("crash check: canonical state after SIGKILL and restart differs from before")
		}
		d2.stop(syscall.SIGTERM)
	} else {
		d2, restart, err := crashRestart(o, w, &fl, d, "", rep)
		if err != nil {
			return 0, err
		}
		rep.set("recovery.restart_s", restart, "s")
		d2.stop(syscall.SIGTERM)
	}
	sent, failed := loadTotals(logs)
	return int64(sent[0] + sent[1] - failed[0] - failed[1]), nil
}

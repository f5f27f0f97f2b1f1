package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/partition"
)

// steadyOps is how many ops per tenant the traced replay runs after the
// fill phase; the count is fixed so layer figures compare across runs.
const steadyOps = 4000

// stream is a replayable op sequence across tenants, with the verdict the
// bare engine gave each op.
type stream struct {
	tenants  []tenantSpec
	tenant   []int // tenant index of each op
	ops      []op
	verdicts []verdict
}

// engineOp runs one op against a bare partition.Online engine.
func engineOp(eng *partition.Online, o op) verdict {
	if o.Kind == opRemove {
		return verdict{Removed: eng.Remove(o.Handle)}
	}
	pl, err := eng.Admit(o.Task)
	if err == nil {
		return verdict{Accepted: true, Handle: pl.Handle, Proc: pl.Proc}
	}
	var rej *partition.Rejection
	if !errors.As(err, &rej) {
		panic("online engine returned an untyped error: " + err.Error())
	}
	return verdict{Proc: -1, Cause: rej.Cause.String()}
}

// buildStream generates the seeded stream of every tenant — the fill to its
// target population, then steadyOps more — exactly as the load generator
// would send it, using a bare engine to answer.
func buildStream(tenants []tenantSpec, seed int64) (stream, error) {
	st := stream{tenants: tenants}
	for ti, spec := range tenants {
		eng, err := partition.NewOnline(spec.M, spec.Policy, 0)
		if err != nil {
			return st, err
		}
		g := newStreamGen(spec, seed, ti)
		emit := func() {
			o := g.next()
			v := engineOp(eng, o)
			g.observe(o, v)
			st.tenant = append(st.tenant, ti)
			st.ops = append(st.ops, o)
			st.verdicts = append(st.verdicts, v)
		}
		for i := 0; i < warmupCap && g.population() < spec.Target; i++ {
			emit()
		}
		for i := 0; i < steadyOps; i++ {
			emit()
		}
	}
	return st, nil
}

func newEngines(tenants []tenantSpec) ([]*partition.Online, error) {
	engs := make([]*partition.Online, len(tenants))
	for i, spec := range tenants {
		var err error
		if engs[i], err = partition.NewOnline(spec.M, spec.Policy, 0); err != nil {
			return nil, err
		}
	}
	return engs, nil
}

// engineLayer replays the stream through fresh bare engines twice, without
// and with spans, and reports the span overhead.
func engineLayer(st stream, rep *report, rec *recorder) error {
	var walls [2]time.Duration
	for pass := 0; pass < 2; pass++ {
		engs, err := newEngines(st.tenants)
		if err != nil {
			return err
		}
		start := time.Now()
		for i, o := range st.ops {
			if pass == 0 {
				engineOp(engs[st.tenant[i]], o)
				continue
			}
			t0 := time.Now()
			v := engineOp(engs[st.tenant[i]], o)
			rec.record("engine", i, o.class(v), t0, time.Now())
		}
		walls[pass] = time.Since(start)
	}
	rep.set("trace.engine_overhead_pct", (walls[1].Seconds()-walls[0].Seconds())/walls[0].Seconds()*100, "%")
	return nil
}

// createAll registers the stream's tenants on an in-process service.
func createAll(svc *admit.Service, tenants []tenantSpec) ([]*admit.Cluster, error) {
	cs := make([]*admit.Cluster, len(tenants))
	for i, t := range tenants {
		var err error
		if cs[i], err = svc.Create(context.Background(), t.Name, t.M, t.Policy, 0); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// clusterReplay replays the stream through admit.Cluster on svc, recording
// spans under layer, and checks every verdict against the engine's. It
// returns the ops replayed.
func clusterReplay(svc *admit.Service, st stream, layer string, rec *recorder, rep *report) (int, error) {
	cs, err := createAll(svc, st.tenants)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	n := 0
	for i, o := range st.ops {
		t0 := time.Now()
		v, err := admitOp(ctx, cs[st.tenant[i]], o)
		t1 := time.Now()
		if err != nil {
			return n, fmt.Errorf("%s op %d: %w", layer, i, err)
		}
		rec.record(layer, i, o.class(v), t0, t1)
		if v != st.verdicts[i] {
			rep.fail("%s op %d: verdict %+v, engine %+v", layer, i, v, st.verdicts[i])
			return n, nil
		}
		n++
	}
	return n, nil
}

// mutations counts the journal records ops [0, n) write: one per tenant
// creation, accepted admission and removal.
func mutations(st stream, n int) int {
	m := len(st.tenants)
	for i := 0; i < n; i++ {
		if st.ops[i].Kind == opRemove || st.verdicts[i].Accepted {
			m++
		}
	}
	return m
}

// attachTimed recovers a data directory into a fresh service and reports
// the time AttachJournal took and the journal records it replayed.
func attachTimed(dir string) (float64, int, error) {
	svc := admit.NewService(0)
	start := time.Now()
	rs, err := svc.AttachJournal(admit.JournalConfig{Dir: dir, Fsync: admit.FsyncBatch})
	attach := time.Since(start).Seconds()
	if err != nil {
		return 0, 0, fmt.Errorf("recover %s: %w", dir, err)
	}
	return attach, rs.Replayed, svc.Close()
}

// admitLayers replays the workload's stream through engine → cluster →
// journaled cluster → HTTP handler and reports each layer. It returns the
// handler's median latency for the socket figure and the ops replayed.
func admitLayers(o options, w workload, rep *report, rec *recorder) (float64, int, error) {
	st, err := buildStream(w.tenants, o.seed)
	if err != nil {
		return 0, 0, err
	}
	nOps := len(st.ops)
	total := 0
	if err := engineLayer(st, rep, rec); err != nil {
		return 0, 0, err
	}
	total += nOps
	engine, class := rec.layer("engine", nOps)
	for _, c := range []string{"accept", "reject", "remove"} {
		rep.set("engine."+c+"_us", median(ofClass(engine, class, c)), "us")
	}

	// Cluster: an unjournaled service, as admit-mem's daemon runs it.
	svc := admit.NewService(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := clusterReplay(svc, st, "cluster", rec, rep)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, err
	}
	total += n
	cluster, _ := rec.layer("cluster", nOps)
	for _, c := range []string{"accept", "reject", "remove"} {
		rep.set("cluster."+c+"_us", median(ofClass(cluster, class, c)), "us")
	}
	rep.set("cluster.self_us", median(selfTimes(cluster, engine, class, "")), "us")
	var hits, rejected int64
	for _, t := range st.tenants {
		c, _ := svc.Get(t.Name)
		s := c.StatsSnapshot()
		hits += s.CacheHits
		rejected += s.Rejected
	}
	rep.set("cluster.memo_hit_ratio", float64(hits)/float64(max(rejected, 1)), "ratio")
	rep.set("cluster.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n), "count")
	rep.set("cluster.bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "B")

	// Journal: the same service shape journaled with admitd's default
	// policy, as admit-durable's daemon runs it: each mutation's append is on
	// the caller's path, and a background flusher group-commits the fsyncs.
	dir, err := freshDir(o, "journal-layer")
	if err != nil {
		return 0, 0, err
	}
	jsvc := admit.NewService(0)
	if _, err := jsvc.AttachJournal(admit.JournalConfig{Dir: dir, Fsync: admit.FsyncBatch}); err != nil {
		return 0, 0, err
	}
	fsyncs0, snaps0, wchar0 := obs.Value("admit.journal.fsyncs"), obs.Value("admit.journal.snapshots"), selfWrittenBytes()
	n, err = clusterReplay(jsvc, st, "journal", rec, rep)
	// Read the journal's counters before Close adds its final snapshot.
	fsyncs, snaps, wchar := obs.Value("admit.journal.fsyncs")-fsyncs0, obs.Value("admit.journal.snapshots")-snaps0, selfWrittenBytes()-wchar0
	if cerr := jsvc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	total += n
	muts := float64(mutations(st, n))
	rep.set("journal.fsyncs_per_mutation", float64(fsyncs)/muts, "count")
	rep.set("journal.bytes_per_mutation", wchar/muts, "B")
	rep.set("journal.snapshots", float64(snaps), "count")
	journal, _ := rec.layer("journal", nOps)
	rep.set("journal.accept_us", median(ofClass(journal, class, "accept")), "us")
	rep.set("journal.remove_us", median(ofClass(journal, class, "remove")), "us")
	rep.set("journal.self_us", median(selfTimes(journal, cluster, class, "")), "us")

	// Handler: the HTTP mux with admitd's default gate and tracing, over
	// the daemon's own service shape (journaled for admit-durable).
	n, err = handlerReplay(o, w, st, rec, rep)
	if err != nil {
		return 0, 0, err
	}
	total += n
	handler, _ := rec.layer("handler", nOps)
	for _, c := range []string{"accept", "reject", "remove"} {
		rep.set("handler."+c+"_us", median(ofClass(handler, class, c)), "us")
	}
	// The layer below the handler is the service the workload's daemon runs:
	// journaled on admit-durable, in memory otherwise.
	below := cluster
	if w.durable {
		below = journal
	}
	rep.set("handler.self_us", median(selfTimes(handler, below, class, "")), "us")
	if w.durable {
		for _, c := range []string{"accept", "remove"} {
			self, h := median(selfTimes(journal, cluster, class, c)), median(ofClass(handler, class, c))
			rep.info("journal append on %s: %.1f us self, %.0f%% of the handler's %.1f us", c, self, self/h*100, h)
		}
	}

	if !w.durable {
		// The in-memory workloads leave no data directory behind, so
		// recovery replays a journal of the whole stream (fsync off; the
		// service is abandoned unclosed, like a crash).
		attach, replayed, err := recoverStream(o, st)
		if err != nil {
			return 0, 0, err
		}
		rep.set("recovery.attach_s", attach, "s")
		rep.set("recovery.replayed_records", float64(replayed), "count")
	}
	return median(ofClass(handler, class, "")), total, nil
}

// recoverStream journals the whole stream without fsync or snapshots,
// copies the directory before any clean shutdown, and times recovery of
// the copy.
func recoverStream(o options, st stream) (float64, int, error) {
	dir, err := freshDir(o, "recovery-src")
	if err != nil {
		return 0, 0, err
	}
	svc := admit.NewService(0)
	if _, err := svc.AttachJournal(admit.JournalConfig{Dir: dir, Fsync: admit.FsyncOff, SnapshotEvery: -1}); err != nil {
		return 0, 0, err
	}
	cs, err := createAll(svc, st.tenants)
	if err != nil {
		return 0, 0, err
	}
	for i, op := range st.ops {
		if _, err := admitOp(context.Background(), cs[st.tenant[i]], op); err != nil {
			return 0, 0, err
		}
	}
	copyTo, err := freshDir(o, "recovery-copy")
	if err != nil {
		return 0, 0, err
	}
	if err := copyDir(dir, copyTo); err != nil {
		return 0, 0, err
	}
	if err := svc.Close(); err != nil {
		return 0, 0, err
	}
	return attachTimed(copyTo)
}

// handlerBatch is how many requests are built ahead of each measured
// batch, so request construction stays outside the allocation count.
const handlerBatch = 256

// handlerReplay drives Service.Handler() through httptest with admitd's
// default gate and tracing installed.
func handlerReplay(o options, w workload, st stream, rec *recorder, rep *report) (int, error) {
	svc := admit.NewService(0)
	svc.SetGate(admit.NewGate(admit.GateConfig{Timeout: time.Second, RetryAfter: time.Second}))
	svc.SetTracing(admit.TraceConfig{Ring: obs.NewRequestRing(256), SlowThreshold: 100 * time.Millisecond})
	if w.durable {
		// The daemon's default fsync policy, as admit-durable runs it.
		dir, err := freshDir(o, "handler-layer")
		if err != nil {
			return 0, err
		}
		if _, err := svc.AttachJournal(admit.JournalConfig{Dir: dir, Fsync: admit.FsyncBatch}); err != nil {
			return 0, err
		}
		defer svc.Close()
	}
	h := svc.Handler()
	for _, t := range st.tenants {
		body := fmt.Sprintf(`{"name":%q,"m":%d,"policy":%q}`, t.Name, t.M, t.Policy)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/clusters", bytes.NewReader([]byte(body))))
		if rr.Code != http.StatusCreated {
			return 0, fmt.Errorf("handler create %s: %d %s", t.Name, rr.Code, rr.Body)
		}
	}
	var allocs uint64
	n := 0
	reqs := make([]*http.Request, 0, handlerBatch)
	rrs := make([]*httptest.ResponseRecorder, 0, handlerBatch)
	for n < len(st.ops) {
		end := min(n+handlerBatch, len(st.ops))
		reqs, rrs = reqs[:0], rrs[:0]
		for i := n; i < end; i++ {
			o := st.ops[i]
			path := "/v1/clusters/" + st.tenants[st.tenant[i]].Name + "/admit"
			if o.Kind == opRemove {
				path = "/v1/clusters/" + st.tenants[st.tenant[i]].Name + "/remove"
			}
			req := httptest.NewRequest("POST", path, bytes.NewReader(o.body()))
			req.Header.Set("Content-Type", "application/json")
			reqs = append(reqs, req)
			rrs = append(rrs, httptest.NewRecorder())
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k, req := range reqs {
			t0 := time.Now()
			h.ServeHTTP(rrs[k], req)
			rec.record("handler", n+k, "", t0, time.Now())
		}
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		for k, rr := range rrs {
			i := n + k
			if rr.Code != http.StatusOK {
				return i, fmt.Errorf("handler op %d: status %d %s", i, rr.Code, rr.Body)
			}
			got, err := decodeVerdict(rr.Body.Bytes())
			if err != nil {
				return i, err
			}
			if got != st.verdicts[i] {
				rep.fail("handler op %d: verdict %+v, engine %+v", i, got, st.verdicts[i])
				return i, nil
			}
		}
		n = end
	}
	rep.set("handler.allocs_per_op", float64(allocs)/float64(max(n, 1)), "count")
	return n, nil
}

// runTraced is the traced run: the paper pipeline's layers, then the admit
// layers on the workload's stream, then a daemon phase. Every workload's
// traced run covers every layer, so each reports the full per-layer set.
func runTraced(o options, w workload, rep *report) error {
	rec := newRecorder(1 << 17)
	if err := paperLayers(o, rep, rec); err != nil {
		return err
	}
	// admitd serves with metrics on; the in-process layers match it.
	obs.SetEnabled(true)
	handlerP50, replayed, err := admitLayers(o, w, rep, rec)
	if err != nil {
		return err
	}
	served, err := daemonLayers(o, w, rep, handlerP50)
	if err != nil {
		return err
	}
	path := filepath.Join(o.work, "spans-"+o.workload+".tsv")
	if err := rec.writeTSV(path); err != nil {
		return err
	}
	rep.info("%d spans written to %s", len(rec.spans), path)
	rep.attempted = int64(replayed) + served
	return nil
}

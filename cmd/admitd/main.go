// Command admitd serves the online admission-control API (internal/admit)
// next to the observability surface (internal/obs) on one listener.
//
// Usage:
//
//	admitd [-listen host:port] [-addr-file path] [-shards n]
//	       [-data dir] [-fsync always|batch|off] [-fsync-interval d] [-snapshot-every n]
//	       [-gate] [-gate-concurrency n] [-gate-queue n] [-request-timeout d] [-retry-after d]
//	       [-read-header-timeout d] [-read-timeout d] [-write-timeout d] [-idle-timeout d]
//	       [-access-log path] [-access-sample n] [-slow-ms n] [-trace-ring n]
//	admitd -check host:port [-check-load n]
//	admitd -churn host:port [-churn-ops n] [-churn-seed n] [-churn-prefix name]
//	admitd -scrape host:port
//
// Server mode binds -listen (:0 picks a free port; -addr-file publishes
// the bound address for scripts) and serves until SIGINT or SIGTERM, then
// shuts down gracefully — in-flight admissions get complete responses.
// With -data, every mutation is journaled to a write-ahead log and folded
// into atomic snapshots; on startup the directory is recovered (snapshot +
// journal replay) before traffic is admitted, and /readyz reports
// "recovering" until the replay completes. A clean shutdown writes a final
// snapshot; after a crash (SIGKILL, power loss) the next start rebuilds
// the exact acknowledged state from the journal.
//
//	POST   /v1/clusters               create a virtual cluster
//	GET    /v1/clusters               list clusters
//	GET    /v1/clusters/{name}        cluster status + stats
//	DELETE /v1/clusters/{name}        delete a cluster
//	POST   /v1/clusters/{name}/admit  admit one task (200 either verdict)
//	POST   /v1/clusters/{name}/remove remove a resident task by handle
//	GET    /v1/canon                  canonical registry state (hex)
//	GET    /debug/requests            recent slow/errored requests (ring)
//	GET    /metrics /healthz /readyz /debug/pprof/  (obs routes)
//
// Observability (DESIGN.md §15): every request gets an X-Request-Id
// (accepted inbound or generated) echoed on every response and stamped into
// journal records; /metrics serves the Prometheus text format under
// `Accept: text/plain` (JSON and the aligned human-readable text remain);
// -access-log writes a sampled JSONL access log; -slow-ms and -trace-ring
// size the GET /debug/requests ring of recent slow or errored requests.
//
// Check mode is a self-contained smoke client for CI: against a running
// admitd it verifies /healthz, the "/" index, the full admit → reject →
// remove → re-admit cycle with a typed rejection, and then drives a
// sustained admit/remove load, reporting the achieved admissions/sec.
//
// Churn mode is the crash-recovery smoke's client: it drives a seeded
// random create/admit/remove sequence (deterministic for a given
// -churn-seed) and prints a digest of the server's canonical state;
// -churn-ops 0 skips the churn and just prints the digest, so a
// SIGKILL/restart cycle can be verified by comparing two digest lines.
// Exit status: 0 check passed, 1 check failed, 2 usage.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("admitd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:8080", "serve the admission API and status routes at this address (host:port; :0 picks a free port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening (for -listen :0 in scripts)")
		shards   = fs.Int("shards", 0, "cluster-registry lock stripes (0 = default)")

		dataDir    = fs.String("data", "", "durability directory: journal every mutation here and recover it on startup (empty = in-memory only)")
		fsyncMode  = fs.String("fsync", "batch", "journal fsync policy: always (sync per op), batch (group commit), off")
		fsyncEvery = fs.Duration("fsync-interval", 5*time.Millisecond, "group-commit interval under -fsync batch")
		snapEvery  = fs.Int("snapshot-every", 4096, "fold the journal into a snapshot after this many records (negative disables periodic snapshots)")

		gateOn     = fs.Bool("gate", true, "guard the admit/remove endpoints with the concurrency gate")
		gateConc   = fs.Int("gate-concurrency", 0, "gate execution slots (0 = 2×GOMAXPROCS)")
		gateQueue  = fs.Int("gate-queue", 0, "bounded wait queue before the gate sheds with 429 (0 = 4×slots)")
		reqTimeout = fs.Duration("request-timeout", time.Second, "per-request deadline through queue wait and admission (0 disables)")
		retryAfter = fs.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
		readHeadTO = fs.Duration("read-header-timeout", 5*time.Second, "server read-header timeout (Slowloris guard; 0 disables)")
		readTO     = fs.Duration("read-timeout", 30*time.Second, "server whole-request read timeout (0 disables)")
		writeTO    = fs.Duration("write-timeout", 0, "server response write timeout (0 disables; pprof profile streams need it off)")
		idleTO     = fs.Duration("idle-timeout", 2*time.Minute, "server keep-alive idle timeout (0 disables)")

		accessLog    = fs.String("access-log", "", "write a JSONL access log to this path (empty = off)")
		accessSample = fs.Int("access-sample", 1, "log every Nth successful request (errors always logged)")
		slowMS       = fs.Int("slow-ms", 100, "requests at least this slow enter the /debug/requests ring (0 = errors only)")
		traceRing    = fs.Int("trace-ring", 256, "capacity of the /debug/requests ring (0 disables it)")

		check = fs.String("check", "", "client mode: run the admission smoke against the admitd at this address and exit")
		load  = fs.Int("check-load", 2000, "admissions driven by the -check load smoke")

		scrape = fs.String("scrape", "", "client mode: fetch /metrics in the Prometheus text format from the admitd at this address, print it, and exit")

		churn       = fs.String("churn", "", "client mode: drive a seeded random churn against the admitd at this address, print a canonical-state digest, and exit")
		churnOps    = fs.Int("churn-ops", 500, "operations driven by -churn (0 = just print the digest)")
		churnSeed   = fs.Int64("churn-seed", 1, "seed of the -churn operation sequence")
		churnPrefix = fs.String("churn-prefix", "churn", "cluster-name prefix used by -churn")

		quiet = fs.Bool("q", false, "suppress informational output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "admitd: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "admitd: "+format+"\n", args...)
		return 2
	}
	clientModes := 0
	for _, m := range []string{*check, *churn, *scrape} {
		if m != "" {
			clientModes++
		}
	}
	if clientModes > 1 {
		return usage("-check, -churn and -scrape are mutually exclusive")
	}
	if *check != "" {
		if *load <= 0 {
			return usage("-check-load must be positive (got %d)", *load)
		}
		return runCheck(*check, *load, stdout, stderr)
	}
	if *scrape != "" {
		return runScrape(*scrape, stdout, stderr)
	}
	if *churn != "" {
		if *churnOps < 0 {
			return usage("-churn-ops must be non-negative (got %d)", *churnOps)
		}
		return runChurn(*churn, *churnOps, *churnSeed, *churnPrefix, stdout, stderr)
	}
	fsyncPolicy, err := admit.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return usage("%v", err)
	}
	if *fsyncEvery <= 0 {
		return usage("-fsync-interval must be positive (got %v)", *fsyncEvery)
	}
	if *gateConc < 0 || *gateQueue < 0 {
		return usage("-gate-concurrency and -gate-queue must be non-negative")
	}
	for _, to := range []struct {
		name string
		v    time.Duration
	}{
		{"-request-timeout", *reqTimeout}, {"-retry-after", *retryAfter},
		{"-read-header-timeout", *readHeadTO}, {"-read-timeout", *readTO},
		{"-write-timeout", *writeTO}, {"-idle-timeout", *idleTO},
	} {
		if to.v < 0 {
			return usage("%s must be non-negative (got %v)", to.name, to.v)
		}
	}
	if *accessSample < 1 {
		return usage("-access-sample must be at least 1 (got %d)", *accessSample)
	}
	if *slowMS < 0 {
		return usage("-slow-ms must be non-negative (got %d)", *slowMS)
	}
	if *traceRing < 0 {
		return usage("-trace-ring must be non-negative (got %d)", *traceRing)
	}

	// The status surface is part of the daemon's contract, so metrics are
	// always on (in the batch harness they are opt-in to keep hot loops
	// untouched; a service that serves /metrics should fill it).
	obs.SetEnabled(true)
	obs.SetReadiness(obs.ReadyStarting)
	obs.RegisterReadinessGauge(nil)
	svc := admit.NewService(*shards)
	if *gateOn {
		svc.SetGate(admit.NewGate(admit.GateConfig{
			MaxConcurrent: *gateConc,
			MaxQueue:      *gateQueue,
			Timeout:       disabledIfZero(*reqTimeout),
			RetryAfter:    *retryAfter,
		}))
	}
	svc.RegisterMetrics(nil)

	// Per-request sinks: slow/errored-request ring and the optional JSONL
	// access log (the tracing layer itself — request IDs and RED metrics —
	// is always on).
	var ring *obs.RequestRing
	if *traceRing > 0 {
		ring = obs.NewRequestRing(*traceRing)
	}
	var alog *obs.AccessLog
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return usage("open -access-log: %v", err)
		}
		alog = obs.NewAccessLog(f, *accessSample)
	}
	svc.SetTracing(admit.TraceConfig{
		Ring:          ring,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		AccessLog:     alog,
	})

	// Bind before recovering, guarding the API behind readiness: a balancer
	// (or curl) sees 503 "recovering" from /readyz and the /v1 routes while
	// journal replay runs, instead of connection refused or partial state.
	routes := svc.Routes()
	for i := range routes {
		routes[i].Handler = readyGuard(routes[i].Handler)
	}
	routes = append(routes, obshttp.Route{Pattern: "GET /debug/requests", Handler: obshttp.RequestsHandler(ring)})
	srv, err := obshttp.ServeOpts(*listen, obs.Default, obshttp.ServeOptions{
		ReadHeaderTimeout: disabledIfZero(*readHeadTO),
		ReadTimeout:       disabledIfZero(*readTO),
		WriteTimeout:      disabledIfZero(*writeTO),
		IdleTimeout:       disabledIfZero(*idleTO),
	}, routes...)
	if err != nil {
		fmt.Fprintf(stderr, "admitd: %v\n", err)
		return 2
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "admitd: write -addr-file: %v\n", err)
			srv.Close()
			return 2
		}
	}

	if *dataDir != "" {
		obs.SetReadiness(obs.ReadyRecovering)
		rs, err := svc.AttachJournal(admit.JournalConfig{
			Dir:           *dataDir,
			Fsync:         fsyncPolicy,
			FsyncInterval: *fsyncEvery,
			SnapshotEvery: *snapEvery,
		})
		if err != nil {
			// Refusing to serve beats serving silently wrong state: a
			// corrupt journal is an operator decision, not a default.
			fmt.Fprintf(stderr, "admitd: recovery failed: %v\n", err)
			srv.Close()
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stderr, "admitd: recovered %d clusters (%d residents), replayed %d journal records, %d torn tails repaired\n",
				rs.Clusters, rs.Residents, rs.Replayed, rs.TornTails)
		}
	}
	obs.SetReadiness(obs.ReadyServing)
	if !*quiet {
		fmt.Fprintf(stderr, "admitd: serving on %s\n", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	obs.SetReadiness(obs.ReadyDraining)
	if !*quiet {
		fmt.Fprintf(stderr, "admitd: %v, shutting down\n", s)
	}
	code := 0
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "admitd: shutdown: %v\n", err)
		code = 1
	}
	// Final snapshot: a clean shutdown leaves the state durable at rest and
	// the journal empty, so the next start restores Status byte-identically
	// without replay.
	if err := svc.Close(); err != nil {
		fmt.Fprintf(stderr, "admitd: close journal: %v\n", err)
		code = 1
	}
	// The access log closes last: the flushes above can still record.
	if err := alog.Close(); err != nil {
		fmt.Fprintf(stderr, "admitd: close access log: %v\n", err)
		code = 1
	}
	return code
}

// disabledIfZero maps the flag vocabulary (0 = off) onto the option
// vocabulary (0 = default, negative = off).
func disabledIfZero(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

// readyGuard holds the admission API behind the readiness state: during
// startup and journal replay the durable state is not yet consistent, so
// the API answers 503 (with Retry-After) instead of serving reads of
// partial state or mutations that AttachJournal would then collide with.
// The guard short-circuits before the traced routes run, so it resolves and
// echoes the request ID itself — even "not ready yet" is attributable.
func readyGuard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch obs.CurrentReadiness() {
		case obs.ReadyStarting, obs.ReadyRecovering:
			admit.EnsureRequestID(w, r)
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"service %s"}`, obs.CurrentReadiness())
			return
		}
		h.ServeHTTP(w, r)
	})
}

// checkClient is the -check mode's tiny JSON client.
type checkClient struct {
	base string
	hc   *http.Client
}

// do issues one request and decodes any JSON body into a generic map.
func (c *checkClient) do(method, path, body string) (int, map[string]any, error) {
	code, _, raw, err := c.doRaw(method, path, body, nil)
	if err != nil {
		return code, nil, err
	}
	var v map[string]any
	if len(raw) > 0 && json.Unmarshal(raw, &v) != nil {
		v = map[string]any{"_raw": string(raw)}
	}
	return code, v, nil
}

// doRaw issues one request with optional extra headers and returns the
// response headers and raw body — the -check metric/tracing probes need
// both.
func (c *checkClient) doRaw(method, path, body string, hdr map[string]string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// runCheck drives the smoke sequence against a live admitd: health, index,
// the admit → reject → remove → re-admit cycle, and a sustained load run.
func runCheck(addr string, load int, stdout, stderr io.Writer) int {
	c := &checkClient{base: "http://" + addr, hc: &http.Client{Timeout: 10 * time.Second}}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "admitd check: "+format+"\n", args...)
		return 1
	}

	// Health, readiness, and the endpoint index (must name every mounted
	// route family).
	code, v, err := c.do("GET", "/healthz", "")
	if err != nil || code != 200 || v["ok"] != true {
		return fail("/healthz: code %d v %v err %v", code, v, err)
	}
	code, v, err = c.do("GET", "/readyz", "")
	if err != nil || code != 200 || v["ready"] != true {
		return fail("/readyz: code %d v %v err %v", code, v, err)
	}
	code, v, err = c.do("GET", "/", "")
	if err != nil || code != 200 {
		return fail("/: code %d err %v", code, err)
	}
	index, _ := v["_raw"].(string)
	for _, want := range []string{"/healthz", "/readyz", "/metrics", "/v1/clusters", "/v1/clusters/{name}/admit"} {
		if !strings.Contains(index, want) {
			return fail("/ index omits %s: %q", want, index)
		}
	}

	// Admission cycle on a single-processor cluster: two half-utilization
	// tasks fill it, a third is an analyzed rejection, removing one admits
	// the third on retry.
	const cluster = "smoke"
	defer c.do("DELETE", "/v1/clusters/"+cluster, "")
	code, v, err = c.do("POST", "/v1/clusters", fmt.Sprintf(`{"name":%q,"m":1}`, cluster))
	if err != nil || code != 201 {
		return fail("create: code %d v %v err %v", code, v, err)
	}
	admit := func(body string) (map[string]any, error) {
		code, v, err := c.do("POST", "/v1/clusters/"+cluster+"/admit", body)
		if err == nil && code != 200 {
			err = fmt.Errorf("code %d: %v", code, v)
		}
		return v, err
	}
	first, err := admit(`{"name":"a","c":5,"t":10}`)
	if err != nil || first["accepted"] != true {
		return fail("admit a: %v err %v", first, err)
	}
	if v, err = admit(`{"name":"b","c":4,"t":10}`); err != nil || v["accepted"] != true {
		return fail("admit b: %v err %v", v, err)
	}
	rej, err := admit(`{"name":"c","c":5,"t":10}`)
	if err != nil || rej["accepted"] == true {
		return fail("overload admit: %v err %v", rej, err)
	}
	if rej["cause"] != "rta-deadline-miss" || rej["evidence"] == nil {
		return fail("rejection untyped: %v", rej)
	}
	handle := int64(first["handle"].(float64))
	code, v, err = c.do("POST", "/v1/clusters/"+cluster+"/remove", fmt.Sprintf(`{"handle":%d}`, handle))
	if err != nil || code != 200 || v["removed"] != true {
		return fail("remove: code %d v %v err %v", code, v, err)
	}
	if v, err = admit(`{"name":"c","c":5,"t":10}`); err != nil || v["accepted"] != true {
		return fail("re-admit after remove: %v err %v", v, err)
	}

	// Load smoke: sustained admit/remove churn against a wider cluster.
	const loadCluster = "smoke-load"
	defer c.do("DELETE", "/v1/clusters/"+loadCluster, "")
	code, v, err = c.do("POST", "/v1/clusters", fmt.Sprintf(`{"name":%q,"m":2}`, loadCluster))
	if err != nil || code != 201 {
		return fail("create load cluster: code %d v %v err %v", code, v, err)
	}
	// Offered load (mean utilization ≈ 0.11 per task, one removal per three
	// admissions) exceeds the two processors in steady state, so the run
	// exercises acceptances, analyzed rejections, and removal churn.
	var handles []int64
	accepted, rejected := 0, 0
	start := time.Now()
	for i := 0; i < load; i++ {
		body := fmt.Sprintf(`{"c":%d,"t":%d}`, 1+i%5, 10+(i%7)*10)
		code, v, err := c.do("POST", "/v1/clusters/"+loadCluster+"/admit", body)
		if err != nil || code != 200 {
			return fail("load admit %d: code %d err %v", i, code, err)
		}
		if v["accepted"] == true {
			accepted++
			handles = append(handles, int64(v["handle"].(float64)))
		} else {
			rejected++
		}
		if len(handles) > 0 && i%3 == 2 {
			h := handles[0]
			handles = handles[1:]
			if code, v, err := c.do("POST", "/v1/clusters/"+loadCluster+"/remove",
				fmt.Sprintf(`{"handle":%d}`, h)); err != nil || code != 200 {
				return fail("load remove: code %d v %v err %v", code, v, err)
			}
		}
	}
	elapsed := time.Since(start)
	if accepted == 0 || rejected == 0 {
		return fail("load smoke not exercising both verdicts: %d accepted, %d rejected", accepted, rejected)
	}

	// Observability probes (run after the load smoke so every metric family
	// has observations to expose).
	//
	// Request tracing: an ID is minted when absent, echoed verbatim when
	// supplied, and present even on error responses.
	code, hdr, _, err := c.doRaw("GET", "/v1/clusters", "", nil)
	if err != nil || code != 200 {
		return fail("trace probe list: code %d err %v", code, err)
	}
	if hdr.Get("X-Request-Id") == "" {
		return fail("no generated X-Request-Id on a traced response")
	}
	code, hdr, _, err = c.doRaw("GET", "/v1/clusters", "", map[string]string{"X-Request-Id": "check-echo-1"})
	if err != nil || code != 200 || hdr.Get("X-Request-Id") != "check-echo-1" {
		return fail("X-Request-Id not echoed: code %d got %q err %v", code, hdr.Get("X-Request-Id"), err)
	}
	code, hdr, _, err = c.doRaw("GET", "/v1/clusters/no-such-cluster", "", map[string]string{"X-Request-Id": "check-echo-404"})
	if err != nil || code != 404 || hdr.Get("X-Request-Id") != "check-echo-404" {
		return fail("X-Request-Id missing on error path: code %d got %q err %v", code, hdr.Get("X-Request-Id"), err)
	}

	// /metrics, JSON form: schema-versioned export carrying the admit
	// counter families.
	code, _, raw, err := c.doRaw("GET", "/metrics", "", map[string]string{"Accept": "application/json"})
	if err != nil || code != 200 {
		return fail("/metrics json: code %d err %v", code, err)
	}
	var snap struct {
		Schema   int `json:"schema"`
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fail("/metrics json unparseable: %v", err)
	}
	if snap.Schema != 1 {
		return fail("/metrics json schema %d, want 1", snap.Schema)
	}
	counters := make(map[string]int64)
	for _, cv := range snap.Counters {
		counters[cv.Name] = cv.Value
	}
	if counters["admit.requests"] == 0 || counters["admit.http.admit.requests"] == 0 {
		return fail("/metrics json missing admit RED counters: %v", counters)
	}
	gauges := make(map[string]bool)
	for _, gv := range snap.Gauges {
		gauges[gv.Name] = true
	}
	for _, want := range []string{"admit.gate.queue_depth", "admit.clusters", "process.ready_state"} {
		if !gauges[want] {
			return fail("/metrics json missing gauge %s", want)
		}
	}

	// /metrics, Prometheus form: the grammar must validate and the RED and
	// durability families must be present (registered families expose even
	// at count 0, so this holds journaled or not).
	code, _, raw, err = c.doRaw("GET", "/metrics", "", map[string]string{"Accept": "text/plain"})
	if err != nil || code != 200 {
		return fail("/metrics prometheus: code %d err %v", code, err)
	}
	text := string(raw)
	if _, err := obs.ValidatePrometheusText(strings.NewReader(text)); err != nil {
		return fail("/metrics prometheus grammar: %v", err)
	}
	for _, fam := range []string{
		"# TYPE admit_http_admit_latency_us histogram",
		"# TYPE admit_journal_fsync_us histogram",
		"# TYPE admit_gate_queue_depth gauge",
		"# TYPE admit_requests counter",
		"# TYPE process_ready_state gauge",
	} {
		if !strings.Contains(text, fam) {
			return fail("/metrics prometheus missing family line %q", fam)
		}
	}

	// /debug/requests: the ring answers (possibly empty — the smoke should
	// not have been slow) with its schema fields.
	code, v, err = c.do("GET", "/debug/requests", "")
	if err != nil || code != 200 {
		return fail("/debug/requests: code %d err %v", code, err)
	}
	if _, ok := v["requests"]; !ok {
		return fail("/debug/requests body missing requests field: %v", v)
	}

	fmt.Fprintf(stdout, "check ok: %d admissions in %v (%.0f/sec over HTTP), %d accepted, %d rejected\n",
		load, elapsed.Round(time.Millisecond), float64(load)/elapsed.Seconds(), accepted, rejected)
	return 0
}

// runScrape fetches /metrics in the Prometheus text format and prints it —
// a curl-free scrape for scripts (ci.sh pipes it into the grammar lint).
func runScrape(addr string, stdout, stderr io.Writer) int {
	c := &checkClient{base: "http://" + addr, hc: &http.Client{Timeout: 10 * time.Second}}
	code, _, raw, err := c.doRaw("GET", "/metrics", "", map[string]string{"Accept": "text/plain"})
	if err != nil || code != 200 {
		fmt.Fprintf(stderr, "admitd scrape: code %d err %v\n", code, err)
		return 1
	}
	stdout.Write(raw)
	return 0
}

// runChurn drives a seeded random create/admit/remove sequence and prints
// a sha256 digest of the server's canonical registry state. The sequence
// is deterministic in (seed, ops), and admission itself is deterministic
// in (state, candidate), so: churn against a journaled server, SIGKILL it,
// restart it, run -churn-ops 0, and the two digest lines must match —
// that comparison is ci.sh's crash-recovery smoke.
func runChurn(addr string, ops int, seed int64, prefix string, stdout, stderr io.Writer) int {
	c := &checkClient{base: "http://" + addr, hc: &http.Client{Timeout: 10 * time.Second}}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "admitd churn: "+format+"\n", args...)
		return 1
	}
	type placed struct {
		cluster string
		handle  int64
	}
	clusters := []string{prefix + "-0", prefix + "-1"}
	if ops > 0 {
		for i, name := range clusters {
			code, v, err := c.do("POST", "/v1/clusters", fmt.Sprintf(`{"name":%q,"m":%d}`, name, 1+i))
			if err != nil || (code != 201 && code != 409) {
				return fail("create %s: code %d v %v err %v", name, code, v, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var resident []placed
	accepted, rejected, removed := 0, 0, 0
	for i := 0; i < ops; i++ {
		if len(resident) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(resident))
			p := resident[k]
			resident = append(resident[:k], resident[k+1:]...)
			code, v, err := c.do("POST", "/v1/clusters/"+p.cluster+"/remove",
				fmt.Sprintf(`{"handle":%d}`, p.handle))
			if err != nil || code != 200 {
				return fail("remove op %d: code %d v %v err %v", i, code, v, err)
			}
			removed++
			continue
		}
		cl := clusters[rng.Intn(len(clusters))]
		body := fmt.Sprintf(`{"name":"t%d","c":%d,"t":%d}`, i, 1+rng.Intn(5), 10+rng.Intn(7)*10)
		code, v, err := c.do("POST", "/v1/clusters/"+cl+"/admit", body)
		if err != nil || code != 200 {
			return fail("admit op %d: code %d v %v err %v", i, code, v, err)
		}
		if v["accepted"] == true {
			accepted++
			resident = append(resident, placed{cl, int64(v["handle"].(float64))})
		} else {
			rejected++
		}
	}
	code, v, err := c.do("GET", "/v1/canon", "")
	if err != nil || code != 200 {
		return fail("/v1/canon: code %d err %v", code, err)
	}
	canon, _ := v["canon"].(string)
	sum := sha256.Sum256([]byte(canon))
	fmt.Fprintf(stdout, "canon %x\n", sum)
	if ops > 0 {
		fmt.Fprintf(stderr, "churn: %d ops (%d accepted, %d rejected, %d removed), %d resident\n",
			ops, accepted, rejected, removed, len(resident))
	}
	return 0
}

package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path, accept string) (int, string) {
	t.Helper()
	req, err := http.NewRequest("GET", srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestStatusHandlerEndpoints drives /metrics (every content type), the
// pprof index and /healthz through httptest against a registry with live
// data.
func TestStatusHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	SetEnabled(true)
	reg.Counter("rta.calls").Add(11)
	reg.Histogram("rta.iters", 1, 2, 4).Observe(3)
	SetEnabled(false)

	srv := httptest.NewServer(StatusHandlerWith(reg))
	defer srv.Close()

	code, text := get(t, srv, "/metrics", "")
	if code != 200 || !strings.Contains(text, "rta.calls 11") {
		t.Errorf("/metrics text: code %d body %q", code, text)
	}

	code, body := get(t, srv, "/metrics", "application/json")
	if code != 200 {
		t.Fatalf("/metrics json: code %d", code)
	}
	var exp SnapshotExport
	if err := json.Unmarshal([]byte(body), &exp); err != nil {
		t.Fatalf("/metrics json: %v\n%s", err, body)
	}
	if exp.Schema != SnapshotSchemaVersion {
		t.Errorf("/metrics schema %d, want %d", exp.Schema, SnapshotSchemaVersion)
	}
	if (Snapshot{Counters: exp.Counters}).Get("rta.calls") != 11 {
		t.Errorf("/metrics json counters wrong: %s", body)
	}
	if len(exp.Histograms) != 1 || exp.Histograms[0].P99 != 4 {
		t.Errorf("/metrics json histograms wrong: %s", body)
	}

	// Prometheus negotiation: Accept: text/plain (a stock scraper) and
	// ?format=prometheus both select the exposition format; bare curls
	// (Accept */*) keep the human-aligned text above.
	code, prom := get(t, srv, "/metrics", "text/plain")
	if code != 200 || !strings.Contains(prom, "# TYPE rta_calls counter\nrta_calls 11") {
		t.Errorf("/metrics prometheus: code %d body %q", code, prom)
	}
	if !strings.Contains(prom, `rta_iters_bucket{le="+Inf"} 1`) {
		t.Errorf("/metrics prometheus lacks histogram buckets: %q", prom)
	}
	if n, err := ValidatePrometheusText(strings.NewReader(prom)); err != nil || n < 2 {
		t.Errorf("/metrics prometheus invalid (%d families): %v", n, err)
	}
	code, prom2 := get(t, srv, "/metrics?format=prometheus", "")
	if code != 200 || prom2 != prom {
		t.Errorf("?format=prometheus differs from Accept negotiation: %q vs %q", prom2, prom)
	}

	code, body = get(t, srv, "/debug/pprof/", "")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}

	code, body = get(t, srv, "/healthz", "")
	if code != 200 {
		t.Fatalf("/healthz: code %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	if !h.OK || h.GoVersion == "" || h.GOMAXPROCS < 1 || h.GitRev == "" {
		t.Errorf("/healthz body incomplete: %+v", h)
	}
	// The identity must use the perfdiff.Meta field names, so a live harness
	// can be matched against BENCH_hotpath.json capture metadata.
	for _, key := range []string{`"go_version"`, `"gomaxprocs"`, `"git_rev"`} {
		if !strings.Contains(body, key) {
			t.Errorf("/healthz lacks %s: %s", key, body)
		}
	}

	for _, path := range []string{"/nope", "/progress"} {
		if code, _ = get(t, srv, path, ""); code != 404 {
			t.Errorf("%s: code %d, want 404", path, code)
		}
	}
}

// TestServeBindsAndCloses covers the socket path: ServeOpts on :0, hit the
// bound address, Close tears it down.
func TestServeBindsAndCloses(t *testing.T) {
	reg := NewRegistry()
	s, err := ServeOpts("127.0.0.1:0", reg, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestStatusIndexNamesEveryRoute pins the "/" index against the route
// list it is generated from: every registered path — including /healthz,
// which the index used to omit — and any extra mounted route must appear.
func TestStatusIndexNamesEveryRoute(t *testing.T) {
	reg := NewRegistry()
	extra := Route{"POST /v1/clusters/{name}/admit", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})}
	srv := httptest.NewServer(StatusHandlerWith(reg, extra))
	defer srv.Close()

	code, index := get(t, srv, "/", "")
	if code != 200 {
		t.Fatalf("index: code %d", code)
	}
	for _, rt := range append(statusRoutes(reg), extra) {
		path := rt.Pattern
		if i := strings.IndexByte(path, ' '); i >= 0 {
			path = path[i+1:]
		}
		if !strings.Contains(index, path) {
			t.Errorf("index omits registered route %s: %q", path, index)
		}
	}
}

// TestCloseWaitsForInflightResponse is the graceful-shutdown regression
// test: a response in flight when Close is called must still reach the
// client complete. The old Close (http.Server.Close) reset the connection
// mid-body.
func TestCloseWaitsForInflightResponse(t *testing.T) {
	reg := NewRegistry()
	inHandler := make(chan struct{})
	release := make(chan struct{})
	slow := Route{"/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "head...")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		close(inHandler)
		<-release
		io.WriteString(w, "tail")
	})}
	s, err := ServeOpts("127.0.0.1:0", reg, ServeOptions{}, slow)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/slow")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{body: string(body), err: err}
	}()

	<-inHandler // the scrape is mid-body; now tear the server down
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Close must be waiting on the in-flight response, not done already.
	release <- struct{}{}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request failed across Close: %v", res.err)
	}
	if res.body != "head...tail" {
		t.Fatalf("in-flight body truncated across Close: %q", res.body)
	}
	if _, err := http.Get("http://" + s.Addr() + "/slow"); err == nil {
		t.Error("server still reachable after Close")
	}
}

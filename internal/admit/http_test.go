package admit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/explain"
	"repro/internal/faultinject"
)

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var v map[string]any
	if len(w.Body.Bytes()) > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatalf("%s %s: non-JSON body %q", method, path, w.Body.String())
		}
	}
	return w, v
}

func TestHTTPLifecycle(t *testing.T) {
	h := NewService(4).Handler()

	// Create.
	w, v := doJSON(t, h, "POST", "/v1/clusters", `{"name":"edge","m":2,"policy":"rta-ff"}`)
	if w.Code != http.StatusCreated || v["name"] != "edge" || v["m"] != 2.0 {
		t.Fatalf("create: %d %v", w.Code, v)
	}
	// Duplicate name → 409; invalid params → 400.
	if w, _ := doJSON(t, h, "POST", "/v1/clusters", `{"name":"edge","m":2}`); w.Code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", w.Code)
	}
	if w, _ := doJSON(t, h, "POST", "/v1/clusters", `{"name":"bad","m":0}`); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid create: %d", w.Code)
	}
	if w, _ := doJSON(t, h, "POST", "/v1/clusters", `{"nope":1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", w.Code)
	}

	// Admit accepted.
	w, v = doJSON(t, h, "POST", "/v1/clusters/edge/admit", `{"name":"cam","c":5,"t":10}`)
	if w.Code != http.StatusOK || v["accepted"] != true {
		t.Fatalf("admit: %d %v", w.Code, v)
	}
	handle := v["handle"].(float64)
	if handle == 0 {
		t.Fatal("zero handle")
	}

	// Fill the second processor, then a third full-utilization task is an
	// analyzed rejection — still a 200 with a typed cause and evidence.
	w, v = doJSON(t, h, "POST", "/v1/clusters/edge/admit", `{"c":10,"t":10}`)
	if w.Code != http.StatusOK || v["accepted"] != true {
		t.Fatalf("second admit: %d %v", w.Code, v)
	}
	w, v = doJSON(t, h, "POST", "/v1/clusters/edge/admit", `{"c":10,"t":10}`)
	if w.Code != http.StatusOK || v["accepted"] == true {
		t.Fatalf("overload admit: %d %v", w.Code, v)
	}
	if v["cause"] != "rta-deadline-miss" || v["evidence"] == nil {
		t.Fatalf("rejection shape: %v", v)
	}

	// Status and list.
	w, v = doJSON(t, h, "GET", "/v1/clusters/edge", "")
	if w.Code != http.StatusOK || v["tasks"].(float64) != 2 || v["policy"] != "rta-ff" {
		t.Fatalf("status: %d %v", w.Code, v)
	}
	stats := v["stats"].(map[string]any)
	if stats["requests"].(float64) != 3 || stats["rejected"].(float64) != 1 {
		t.Fatalf("stats: %v", stats)
	}
	w, v = doJSON(t, h, "GET", "/v1/clusters", "")
	if w.Code != http.StatusOK || len(v["clusters"].([]any)) != 1 {
		t.Fatalf("list: %d %v", w.Code, v)
	}

	// Remove: live handle succeeds once, then 404s.
	body := fmt.Sprintf(`{"handle":%d}`, int64(handle))
	w, v = doJSON(t, h, "POST", "/v1/clusters/edge/remove", body)
	if w.Code != http.StatusOK || v["removed"] != true {
		t.Fatalf("remove: %d %v", w.Code, v)
	}
	if w, _ = doJSON(t, h, "POST", "/v1/clusters/edge/remove", body); w.Code != http.StatusNotFound {
		t.Fatalf("double remove: %d", w.Code)
	}

	// Unknown cluster and bad bodies.
	if w, _ = doJSON(t, h, "POST", "/v1/clusters/ghost/admit", `{"c":1,"t":2}`); w.Code != http.StatusNotFound {
		t.Fatalf("ghost admit: %d", w.Code)
	}
	if w, _ = doJSON(t, h, "POST", "/v1/clusters/edge/admit", `not json`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", w.Code)
	}
	if w, _ = doJSON(t, h, "POST", "/v1/clusters/edge/admit", `{"c":1,"t":2}{"c":1,"t":2}`); w.Code != http.StatusBadRequest {
		t.Fatalf("trailing data: %d", w.Code)
	}

	// Delete.
	if w, _ = doJSON(t, h, "DELETE", "/v1/clusters/edge", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", w.Code)
	}
	if w, _ = doJSON(t, h, "DELETE", "/v1/clusters/edge", ""); w.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d", w.Code)
	}
}

// TestHTTPErrorTable pins every error-path status code of the API surface,
// including the overload and slow-client protections.
func TestHTTPErrorTable(t *testing.T) {
	s := NewService(4)
	gate := NewGate(GateConfig{MaxConcurrent: 1, MaxQueue: 1, Timeout: 30 * time.Millisecond, RetryAfter: 2 * time.Second})
	s.SetGate(gate)
	h := s.Handler()
	if w, _ := doJSON(t, h, "POST", "/v1/clusters", `{"name":"edge","m":2}`); w.Code != http.StatusCreated {
		t.Fatalf("setup create: %d", w.Code)
	}

	oversized := `{"name":"` + strings.Repeat("x", maxBodyBytes) + `","c":1,"t":10}`
	cases := []struct {
		name         string
		method, path string
		body         string
		want         int
	}{
		{"oversized body", "POST", "/v1/clusters/edge/admit", oversized, http.StatusRequestEntityTooLarge},
		{"unknown field", "POST", "/v1/clusters", `{"nope":1}`, http.StatusBadRequest},
		{"trailing data", "POST", "/v1/clusters/edge/admit", `{"c":1,"t":2}{"c":1,"t":2}`, http.StatusBadRequest},
		{"trailing brace", "POST", "/v1/clusters/edge/admit", `{"c":1,"t":2}}`, http.StatusBadRequest},
		{"trailing bracket", "POST", "/v1/clusters/edge/admit", `{"c":1,"t":2}]`, http.StatusBadRequest},
		{"not json", "POST", "/v1/clusters/edge/admit", `not json`, http.StatusBadRequest},
		{"unknown cluster status", "GET", "/v1/clusters/ghost", "", http.StatusNotFound},
		{"unknown cluster admit", "POST", "/v1/clusters/ghost/admit", `{"c":1,"t":2}`, http.StatusNotFound},
		{"unknown handle", "POST", "/v1/clusters/edge/remove", `{"handle":999}`, http.StatusNotFound},
		{"duplicate create", "POST", "/v1/clusters", `{"name":"edge","m":2}`, http.StatusConflict},
		{"invalid params", "POST", "/v1/clusters", `{"name":"bad","m":0}`, http.StatusBadRequest},
		{"out-of-domain surcharge", "POST", "/v1/clusters", `{"name":"big","m":1,"surcharge":17592186044417}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, v := doJSON(t, h, tc.method, tc.path, tc.body)
			if w.Code != tc.want {
				t.Fatalf("%s %s: code %d (%v), want %d", tc.method, tc.path, w.Code, v, tc.want)
			}
			if tc.want >= 400 && v["error"] == "" {
				t.Fatalf("error response without error message: %v", v)
			}
			// Every response — 4xx included — must carry a request ID so the
			// client can quote it back at the operator.
			if w.Header().Get(RequestIDHeader) == "" {
				t.Fatalf("%s %s: %d response without %s header", tc.method, tc.path, w.Code, RequestIDHeader)
			}
		})
	}

	// Saturate the gate: hold its only slot, fill the one-deep queue with a
	// waiter, then every further admission sheds immediately with 429 and a
	// Retry-After hint; the queued waiter itself expires into a 503 when
	// its deadline passes — the same status a deadline expiring inside the
	// handler gets.
	t.Run("gate saturated", func(t *testing.T) {
		if err := gate.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer gate.Release()
		queued := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			w := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/clusters/edge/admit", strings.NewReader(`{"c":1,"t":10}`))
			req.Header.Set(RequestIDHeader, "queued-then-expired")
			h.ServeHTTP(w, req)
			queued <- w
		}()
		deadline := time.Now().Add(time.Second)
		for gate.waiters.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if gate.waiters.Load() == 0 {
			t.Fatal("queued request never registered as a waiter")
		}
		w, _ := doJSON(t, h, "POST", "/v1/clusters/edge/admit", `{"c":1,"t":10}`)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("saturated admit: code %d, want 429", w.Code)
		}
		if w.Header().Get("Retry-After") != "2" {
			t.Fatalf("Retry-After = %q, want %q", w.Header().Get("Retry-After"), "2")
		}
		// The tracer sits outside the gate: even a shed that never reached the
		// handler carries a request ID.
		if w.Header().Get(RequestIDHeader) == "" {
			t.Fatalf("429 shed without %s header", RequestIDHeader)
		}
		qw := <-queued
		if qw.Code != http.StatusServiceUnavailable {
			t.Fatalf("queued request expired with code %d, want 503", qw.Code)
		}
		if got := qw.Header().Get(RequestIDHeader); got != "queued-then-expired" {
			t.Fatalf("503 expiry lost the client request ID: %q", got)
		}
	})
}

// TestHTTPConcurrentStress hammers the full HTTP surface — create, delete,
// admit, remove, status — from many goroutines through the gate, with
// injected handler latency stirring the queue. Run under -race this pins
// the locking design end to end; every response must come from the known
// status-code vocabulary.
func TestHTTPConcurrentStress(t *testing.T) {
	s := NewService(8)
	s.SetGate(NewGate(GateConfig{MaxConcurrent: 4, MaxQueue: 8, Timeout: 200 * time.Millisecond}))
	h := s.Handler()
	faultinject.Arm(faultinject.Plan{Seed: 3, HandlerLatencyEvery: 20, HandlerDelay: time.Millisecond})
	defer faultinject.Disarm()

	valid := map[int]bool{200: true, 201: true, 204: true, 404: true, 409: true, 429: true, 503: true}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			names := []string{"s0", "s1", "s2"}
			var handles []int64
			for i := 0; i < 150; i++ {
				name := names[r.Intn(len(names))]
				var rec *httptest.ResponseRecorder
				switch k := r.Intn(10); {
				case k == 0:
					rec, _ = doJSON(t, h, "POST", "/v1/clusters", fmt.Sprintf(`{"name":%q,"m":2}`, name))
				case k == 1:
					rec, _ = doJSON(t, h, "DELETE", "/v1/clusters/"+name, "")
					if rec.Code == http.StatusNoContent || rec.Code == http.StatusNotFound {
						// fine either way under concurrency
					}
				case k == 2 && len(handles) > 0:
					hnd := handles[0]
					handles = handles[1:]
					rec, _ = doJSON(t, h, "POST", "/v1/clusters/"+name+"/remove", fmt.Sprintf(`{"handle":%d}`, hnd))
				case k == 3:
					rec, _ = doJSON(t, h, "GET", "/v1/clusters/"+name, "")
				default:
					var v map[string]any
					rec, v = doJSON(t, h, "POST", "/v1/clusters/"+name+"/admit",
						fmt.Sprintf(`{"c":%d,"t":%d}`, 1+r.Intn(4), 10+r.Intn(5)*10))
					if rec.Code == http.StatusOK && v["accepted"] == true {
						handles = append(handles, int64(v["handle"].(float64)))
					}
				}
				if rec != nil && !valid[rec.Code] {
					t.Errorf("worker %d op %d: unexpected status %d: %s", w, i, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHTTPLargeBodyHasContentLength pins the response framing of a verdict
// past net/http's 2 KB pre-chunking buffer: a 32-processor analyzed
// rejection at the capacity edge (32 evidence records, each in the
// utilization form) must go out with a Content-Length equal to its body,
// not Transfer-Encoding: chunked.
func TestHTTPLargeBodyHasContentLength(t *testing.T) {
	srv := httptest.NewServer(NewService(1).Handler())
	defer srv.Close()
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	if resp, b := post("/v1/clusters", `{"name":"wide","m":32}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, b)
	}
	for i := 0; i < 8*32; i++ {
		if _, b := post("/v1/clusters/wide/admit", `{"c":24,"t":100}`); !strings.Contains(string(b), `"accepted":true`) {
			break
		}
	}
	resp, b := post("/v1/clusters/wide/admit", `{"name":"big","c":90,"t":100}`)
	var res Result
	if err := json.Unmarshal(b, &res); err != nil || res.Accepted || len(res.Evidence) != 32 {
		t.Fatalf("want a 32-processor analyzed rejection, got %d %s (%v)", resp.StatusCode, b, err)
	}
	if len(b) <= 2048 {
		t.Fatalf("rejection body is %d bytes; the test needs one past the 2 KB chunking threshold", len(b))
	}
	// Every processor sits at u = 0.96, so the 0.9 candidate overfills each
	// one: the evidence is the utilization room, with no RTA probe.
	for _, ev := range res.Evidence {
		if *ev.Detail != (explain.ProcEvidence{UtilizationRoom: 1 - ev.Utilization, HasUtilization: true}) {
			t.Fatalf("proc %d: want utilization evidence at u=%v, got %+v", ev.Proc, ev.Utilization, *ev.Detail)
		}
	}
	if resp.ContentLength != int64(len(b)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(b)) {
		t.Errorf("Content-Length = %d (header %q), want %d", resp.ContentLength, resp.Header.Get("Content-Length"), len(b))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding = %v, want none", resp.TransferEncoding)
	}
}

// TestHTTPThresholdRefusesJustAboveTheBound replays L&L's n = 2 worst case
// with one tick added to the last C (U − Θ(2) ≈ 7.1·10⁻¹¹) against a
// threshold cluster: the second task misses its deadline under exact RTA,
// so the utilization test must refuse it rather than admit it inside the
// float margin.
func TestHTTPThresholdRefusesJustAboveTheBound(t *testing.T) {
	h := NewService(4).Handler()
	if w, v := doJSON(t, h, "POST", "/v1/clusters", `{"name":"ll","m":1,"policy":"threshold"}`); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %v", w.Code, v)
	}
	w, v := doJSON(t, h, "POST", "/v1/clusters/ll/admit", `{"name":"a","c":4142135624,"t":10000000000}`)
	if w.Code != http.StatusOK || v["accepted"] != true {
		t.Fatalf("admit a: %d %v", w.Code, v)
	}
	w, v = doJSON(t, h, "POST", "/v1/clusters/ll/admit", `{"name":"b","c":5857864377,"t":14142135624}`)
	if w.Code != http.StatusOK || v["accepted"] == true {
		t.Fatalf("admit b: %d %v, want an analyzed rejection", w.Code, v)
	}
	if v["cause"] != "threshold-exhausted" {
		t.Fatalf("admit b: cause %v, want threshold-exhausted", v["cause"])
	}
}

// TestHTTPAdmitDomainEdge drives the model's domain through the admit
// endpoint: a period of task.MaxTime is analyzed and accepted, one tick
// more is an invalid-input rejection naming the domain, never a wrapped
// value or a hang.
func TestHTTPAdmitDomainEdge(t *testing.T) {
	h := NewService(4).Handler()
	if w, v := doJSON(t, h, "POST", "/v1/clusters", `{"name":"dom","m":1}`); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %v", w.Code, v)
	}
	w, v := doJSON(t, h, "POST", "/v1/clusters/dom/admit", `{"name":"top","c":17592186044416,"t":17592186044416}`)
	if w.Code != http.StatusOK || v["accepted"] != true {
		t.Fatalf("admit at MaxTime: %d %v, want accepted", w.Code, v)
	}
	w, v = doJSON(t, h, "POST", "/v1/clusters/dom/admit", `{"name":"past","c":1,"t":17592186044417}`)
	if w.Code != http.StatusOK || v["accepted"] == true || v["cause"] != "invalid-input" {
		t.Fatalf("admit past MaxTime: %d %v, want an invalid-input rejection", w.Code, v)
	}
	if reason, _ := v["reason"].(string); !strings.Contains(reason, "outside the model's domain") {
		t.Errorf("reason %q lacks the domain message", reason)
	}
}

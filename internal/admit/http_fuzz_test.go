package admit

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/task"
)

// httpStatuses is the documented status set of Service.Handler (http.go):
// the service's own answers plus the mux's 301 (path-cleaning redirect),
// 404 (no route) and 405 (wrong method).
var httpStatuses = map[int]bool{
	http.StatusOK: true, http.StatusCreated: true, http.StatusNoContent: true,
	http.StatusMovedPermanently: true, http.StatusBadRequest: true,
	http.StatusNotFound: true, http.StatusMethodNotAllowed: true,
	http.StatusConflict: true, http.StatusRequestEntityTooLarge: true,
	http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
}

// fuzzPrelude gives a service two tenants with residents: "p" (rta-ff,
// M=2) and "q" (threshold, M=1).
func fuzzPrelude(tb testing.TB, s *Service) {
	tb.Helper()
	ctx := context.Background()
	p, err := s.Create(ctx, "p", 2, partition.OnlineRTAFirstFit, 0)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := s.Create(ctx, "q", 1, partition.OnlineThreshold, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, tk := range []task.Task{{Name: "a", C: 1, T: 10}, {Name: "b", C: 6, T: 12}, {Name: "c", C: 9, T: 10}} {
		admitNow(tb, p, tk)
	}
	admitNow(tb, q, task.Task{Name: "a", C: 5, T: 10})
}

// FuzzAdmitHTTP feeds an arbitrary request (method, path, header lines
// "Key: value", body) through Service.Handler twice, so the second copy
// meets the state the first left. No request may panic, every status must
// be documented, every response must echo a usable inbound X-Request-Id
// (or carry a generated one), and each mutation the handler reports as done
// is replayed on an in-memory mirror through the Go API: the mirror's
// admission answer must encode to the response body byte for byte, and
// /v1/canon must equal the mirror's canonical state at the end.
func FuzzAdmitHTTP(f *testing.F) {
	maxT := "17592186044416" // task.MaxTime
	for _, s := range [][4]string{
		{"POST", "/v1/clusters/p/admit", "", `{"name":"x","c":2,"t":5,"d":4,"evidence":true}`},
		{"POST", "/v1/clusters/p/admit", "", `{"name":"x","c":2,"t":5,"d":4,"evidence":false}`},
		{"POST", "/v1/clusters/p/admit", "", `{"name":"x","c":2,"t":5,"d":4}`},
		{"POST", "/v1/clusters/p/admit", "", `{"c":2,"t":5,"evidence":"yes"}`},
		{"POST", "/v1/clusters/p/admit", "", `{"c":2,"t":5,"evidence":1}`},
		{"POST", "/v1/clusters/q/admit", "", `{"c":4,"t":10,"evidence":true}`},
		{"POST", "/v1/clusters/p/admit", "", `{"c":` + maxT + `,"t":` + maxT + `,"evidence":true}`},
		{"POST", "/v1/clusters/p/admit", "", `{"c":1,"t":17592186044417}`},
		{"POST", "/v1/clusters/p/admit", "", `{"c":1,"t":10,"d":17592186044417,"evidence":true}`},
		{"POST", "/v1/clusters", "", `{"name":"n","m":3,"policy":"rta-wf","surcharge":1}`},
		{"POST", "/v1/clusters", "", `{"name":"n","m":65537}`},
		{"POST", "/v1/clusters", "", `{"name":"n","m":1125899906842624}`},
		{"POST", "/v1/clusters", "", `{"name":"n","m":1,"surcharge":` + maxT + `}`},
		{"POST", "/v1/clusters/p/remove", "", `{"handle":2}`},
		{"DELETE", "/v1/clusters/q", "", ""},
		{"GET", "/v1/clusters", "X-Request-Id: trace-me", ""},
		{"GET", "/v1/clusters/p", "X-Request-Id: bad id\nX-Request-Id: second", ""},
		{"GET", "/v1/canon", "X-Request-Id: " + strings.Repeat("x", maxRequestIDLen+1), ""},
		{"PUT", "/v1/clusters/p/admit", "", `{"c":1,"t":10}`},
		{"GET", "/v1/clusters/p/../q", "", ""},
		{"POST", "/v1/clusters/a%2Fb/admit", "Content-Type: text/plain", `{"c":1,"t":10}`},
		{"POST", "/nope", "", ""},
	} {
		f.Add(s[0], s[1], s[2], s[3])
	}
	f.Fuzz(func(t *testing.T, method, path, header, body string) {
		svc, mirror := NewService(2), NewService(2)
		fuzzPrelude(t, svc)
		fuzzPrelude(t, mirror)
		h := svc.Handler()
		for round := 0; round < 2; round++ {
			req, err := http.NewRequest(method, path, strings.NewReader(body))
			if err != nil {
				t.Skip("not a request net/http would build")
			}
			for _, line := range strings.Split(header, "\n") {
				if k, v, ok := strings.Cut(line, ":"); ok {
					req.Header.Add(k, strings.TrimSpace(v))
				}
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if !httpStatuses[w.Code] {
				t.Fatalf("%s %q: undocumented status %d: %s", method, path, w.Code, w.Body)
			}
			got := w.Header().Get(RequestIDHeader)
			if in := req.Header.Get(RequestIDHeader); usableRequestID(in) && got != in {
				t.Fatalf("%s %q: inbound request ID %q echoed as %q", method, path, in, got)
			}
			if !usableRequestID(got) {
				t.Fatalf("%s %q: %d response carries request ID %q", method, path, w.Code, got)
			}
			mirrorOp(t, mirror, req, body, w)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/canon", nil))
		var canon struct{ Canon string }
		if err := json.Unmarshal(w.Body.Bytes(), &canon); err != nil || w.Code != http.StatusOK {
			t.Fatalf("/v1/canon: %d %s (%v)", w.Code, w.Body, err)
		}
		if want := hex.EncodeToString(mirror.CanonicalState()); canon.Canon != want {
			t.Fatalf("%s %q %q: /v1/canon diverged from the mirror\n got %s\nwant %s", method, path, body, canon.Canon, want)
		}
	})
}

// mirrorOp replays on mirror the mutation a handled request reports done.
// It routes the request with its own mux over the mutating routes, so the
// cluster name is the one net/http extracts from the path.
func mirrorOp(t *testing.T, mirror *Service, req *http.Request, body string, w *httptest.ResponseRecorder) {
	t.Helper()
	var route, name string
	router := http.NewServeMux()
	for _, p := range []string{"POST /v1/clusters", "DELETE /v1/clusters/{name}", "POST /v1/clusters/{name}/admit", "POST /v1/clusters/{name}/remove"} {
		router.HandleFunc(p, func(_ http.ResponseWriter, r *http.Request) { route, name = p, r.PathValue("name") })
	}
	router.ServeHTTP(httptest.NewRecorder(), req)
	ctx := context.Background()
	switch {
	case route == "POST /v1/clusters" && w.Code == http.StatusCreated:
		var cr CreateRequest
		if err := json.Unmarshal([]byte(body), &cr); err != nil {
			t.Fatalf("created from a body the mirror cannot decode: %v", err)
		}
		if _, err := mirror.Create(ctx, cr.Name, cr.M, cr.Policy, task.Time(cr.Surcharge)); err != nil {
			t.Fatalf("created %+v, mirror refused: %v", cr, err)
		}
	case route == "DELETE /v1/clusters/{name}" && w.Code == http.StatusNoContent:
		if ok, err := mirror.Delete(ctx, name); !ok || err != nil {
			t.Fatalf("deleted %q, mirror did not: %v", name, err)
		}
	case route == "POST /v1/clusters/{name}/admit" && w.Code == http.StatusOK:
		var ar AdmitRequest
		c, ok := mirror.Get(name)
		if err := json.Unmarshal([]byte(body), &ar); err != nil || !ok {
			t.Fatalf("admitted into %q, mirror cannot (%v, cluster known %v)", name, err, ok)
		}
		res, err := c.admit(ctx, task.Task{Name: ar.Name, C: ar.C, T: ar.T, D: ar.D}, ar.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		want, err := appendResult(nil, &res)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Body.String(); got != string(want) {
			t.Fatalf("admit answer diverged from the mirror\n got %s\nwant %s", got, want)
		}
	case route == "POST /v1/clusters/{name}/remove" && w.Code == http.StatusOK:
		var rr RemoveRequest
		c, ok := mirror.Get(name)
		if err := json.Unmarshal([]byte(body), &rr); err != nil || !ok {
			t.Fatalf("removed from %q, mirror cannot (%v, cluster known %v)", name, err, ok)
		}
		if !removeNow(t, c, rr.Handle) {
			t.Fatalf("removed handle %d from %q, mirror has no such resident", rr.Handle, name)
		}
	}
}

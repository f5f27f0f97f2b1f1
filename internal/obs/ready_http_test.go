package obs_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obshttp"
)

// TestReadyzFollowsReadiness walks the readiness state machine and checks
// /readyz reports each transition: liveness (/healthz) stays 200 throughout
// while readiness flips — the split that lets a balancer park traffic during
// journal replay without the process looking dead. The state machine is
// obs's; the probe that reports it is obshttp's status mux.
func TestReadyzFollowsReadiness(t *testing.T) {
	defer obs.SetReadiness(obs.ReadyServing)
	srv := httptest.NewServer(obshttp.StatusHandlerWith(obs.NewRegistry()))
	defer srv.Close()

	cases := []struct {
		state obs.Readiness
		name  string
		code  int
	}{
		{obs.ReadyServing, "serving", 200},
		{obs.ReadyStarting, "starting", 503},
		{obs.ReadyRecovering, "recovering", 503},
		{obs.ReadyDraining, "draining", 503},
	}
	for _, tc := range cases {
		obs.SetReadiness(tc.state)
		if got := obs.CurrentReadiness(); got != tc.state || got.String() != tc.name {
			t.Fatalf("state round-trip: got %v (%q), want %v (%q)", got, got, tc.state, tc.name)
		}
		code, body := get(t, srv, "/readyz")
		if code != tc.code {
			t.Errorf("%s: /readyz code %d, want %d", tc.name, code, tc.code)
		}
		var r struct {
			Ready bool   `json:"ready"`
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("%s: /readyz body: %v\n%s", tc.name, err, body)
		}
		if r.Ready != (tc.code == 200) || r.State != tc.name {
			t.Errorf("%s: /readyz body %+v", tc.name, r)
		}
		if code, _ := get(t, srv, "/healthz"); code != 200 {
			t.Errorf("%s: liveness flipped with readiness: /healthz code %d", tc.name, code)
		}
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
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

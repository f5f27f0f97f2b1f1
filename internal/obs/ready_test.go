package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// TestReadyzFollowsReadiness walks the readiness state machine and checks
// /readyz reports each transition: liveness (/healthz) stays 200 throughout
// while readiness flips — the split that lets a balancer park traffic during
// journal replay without the process looking dead.
func TestReadyzFollowsReadiness(t *testing.T) {
	defer SetReadiness(ReadyServing)
	srv := httptest.NewServer(StatusHandlerWith(NewRegistry()))
	defer srv.Close()

	cases := []struct {
		state Readiness
		name  string
		code  int
	}{
		{ReadyServing, "serving", 200},
		{ReadyStarting, "starting", 503},
		{ReadyRecovering, "recovering", 503},
		{ReadyDraining, "draining", 503},
	}
	for _, tc := range cases {
		SetReadiness(tc.state)
		if got := CurrentReadiness(); got != tc.state || got.String() != tc.name {
			t.Fatalf("state round-trip: got %v (%q), want %v (%q)", got, got, tc.state, tc.name)
		}
		code, body := get(t, srv, "/readyz", "")
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
		if code, _ := get(t, srv, "/healthz", ""); code != 200 {
			t.Errorf("%s: liveness flipped with readiness: /healthz code %d", tc.name, code)
		}
	}
}

// TestServeOptionsDefaults pins the zero-value/negative semantics of the
// timeout knobs: zero means the documented default, negative means disabled.
func TestServeOptionsDefaults(t *testing.T) {
	cases := []struct {
		v, def, want time.Duration
	}{
		{0, 5 * time.Second, 5 * time.Second},
		{0, 0, 0},
		{-1, 30 * time.Second, 0},
		{7 * time.Second, 5 * time.Second, 7 * time.Second},
	}
	for _, tc := range cases {
		if got := timeoutOr(tc.v, tc.def); got != tc.want {
			t.Errorf("timeoutOr(%v, %v) = %v, want %v", tc.v, tc.def, got, tc.want)
		}
	}

	s, err := ServeOpts("127.0.0.1:0", NewRegistry(), ServeOptions{
		ReadHeaderTimeout: time.Second,
		WriteTimeout:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.srv.ReadHeaderTimeout != time.Second {
		t.Errorf("ReadHeaderTimeout = %v", s.srv.ReadHeaderTimeout)
	}
	if s.srv.ReadTimeout != 30*time.Second {
		t.Errorf("ReadTimeout default = %v", s.srv.ReadTimeout)
	}
	if s.srv.WriteTimeout != 0 {
		t.Errorf("negative WriteTimeout should disable, got %v", s.srv.WriteTimeout)
	}
	if s.srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout default = %v", s.srv.IdleTimeout)
	}
}

// TestRegisterReadinessGauge pins satellite (a): the /readyz state is also a
// numeric gauge (process.ready_state) that tracks every transition, so state
// flaps survive in scrape history.
func TestRegisterReadinessGauge(t *testing.T) {
	defer SetReadiness(ReadyServing)
	reg := NewRegistry()
	RegisterReadinessGauge(reg)
	for _, st := range []Readiness{ReadyStarting, ReadyRecovering, ReadyServing, ReadyDraining} {
		SetReadiness(st)
		if got := reg.Snapshot().GetGauge("process.ready_state"); got != int64(st) {
			t.Errorf("ready_state gauge = %d in state %v, want %d", got, st, int64(st))
		}
	}
	// Nil registry means Default — the cmd/admitd wiring.
	RegisterReadinessGauge(nil)
	SetReadiness(ReadyDraining)
	if got := Default.Snapshot().GetGauge("process.ready_state"); got != int64(ReadyDraining) {
		t.Errorf("Default ready_state gauge = %d, want %d", got, int64(ReadyDraining))
	}
}

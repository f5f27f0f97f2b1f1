package obs

import "testing"

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

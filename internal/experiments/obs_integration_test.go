package experiments

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// renderE2 runs acceptance-general at quick scale and returns its rendered
// tables byte for byte.
func renderE2(t *testing.T, workers int) []byte {
	t.Helper()
	e, ok := Find("acceptance-general")
	if !ok {
		t.Fatal("acceptance-general not registered")
	}
	var buf bytes.Buffer
	tables, err := e.Run(Config{Seed: 7, SetsPerPoint: 16, Quick: true, Workers: workers})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, tb := range tables {
		tb.Render(&buf)
		tb.CSV(&buf)
	}
	return buf.Bytes()
}

// TestInstrumentationDoesNotAlterOutput is the determinism contract of the
// obs layer: experiment output must be bit-for-bit identical whether
// instrumentation is enabled or disabled, at any worker count.
func TestInstrumentationDoesNotAlterOutput(t *testing.T) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(false)
	baseline := renderE2(t, 1)

	for _, workers := range []int{1, 8} {
		for _, enabled := range []bool{false, true} {
			obs.SetEnabled(enabled)
			obs.Reset()
			got := renderE2(t, workers)
			if !bytes.Equal(got, baseline) {
				t.Errorf("output diverged with obs=%v workers=%d:\n--- baseline ---\n%s\n--- got ---\n%s",
					enabled, workers, baseline, got)
			}
		}
	}
}

// TestCounterTotalsWorkerInvariant checks the second half of the contract:
// with instrumentation on, counter totals and histograms are identical at
// any Workers count, because the same admission work runs regardless of
// goroutine scheduling.
func TestCounterTotalsWorkerInvariant(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	snapshotAt := func(workers int) obs.Snapshot {
		obs.Reset()
		renderE2(t, workers)
		return obs.Default.Snapshot()
	}
	one := snapshotAt(1)
	eight := snapshotAt(8)

	if one.Get("rta.calls") == 0 {
		t.Fatal("no RTA calls recorded — instrumentation not wired")
	}
	if len(one.Counters) != len(eight.Counters) {
		t.Fatalf("counter sets differ: %d vs %d", len(one.Counters), len(eight.Counters))
	}
	for i, c := range one.Counters {
		if eight.Counters[i] != c {
			t.Errorf("counter %s: workers=1 → %d, workers=8 → %d",
				c.Name, c.Value, eight.Counters[i].Value)
		}
	}
	h1, ok1 := one.GetHistogram("rta.iters_per_call")
	h8, ok8 := eight.GetHistogram("rta.iters_per_call")
	if !ok1 || !ok8 {
		t.Fatal("rta.iters_per_call histogram missing")
	}
	if h1.Count != h8.Count || h1.Sum != h8.Sum || h1.Max != h8.Max {
		t.Errorf("histogram diverged across worker counts: %+v vs %+v", h1, h8)
	}
}

// TestRunWithMetricsAttachesSnapshot checks that RunWithMetrics captures the
// run's counters and timing without touching the tables.
func TestRunWithMetricsAttachesSnapshot(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	e, _ := Find("acceptance-general")
	tables, rm, err := RunWithMetrics(e, Config{Seed: 7, SetsPerPoint: 4, Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	if rm.Key != "acceptance-general" || rm.Seconds <= 0 {
		t.Fatalf("metrics header wrong: %+v", rm)
	}
	snap := obs.Snapshot{Counters: rm.Counters}
	if snap.Get("rta.calls") == 0 || snap.Get("partition.assign.attempts") == 0 {
		t.Fatalf("expected nonzero analysis counters, got %+v", rm.Counters)
	}
	var buf bytes.Buffer
	rm.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("# metrics acceptance-general")) ||
		!bytes.Contains(buf.Bytes(), []byte("rta.calls")) {
		t.Fatalf("Render output:\n%s", buf.String())
	}
}

// TestEDFWindowCounters checks that EDF-TS's window levels are observable:
// a quick E15 run (EDF-TS at the capacity edge) both computes exact window
// budgets and refuses levels by their bounds alone, while E2, which runs no
// EDF-TS, ticks neither counter.
func TestEDFWindowCounters(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	counts := func(key string) (probes, skips int64) {
		e, _ := Find(key)
		_, rm, err := RunWithMetrics(e, Config{Seed: 7, SetsPerPoint: 20, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		snap := obs.Snapshot{Counters: rm.Counters}
		return snap.Get("partition.edf_budget_probes"), snap.Get("partition.edf_window_bound_skips")
	}
	if probes, skips := counts("fp-vs-edf"); probes == 0 || skips == 0 {
		t.Errorf("fp-vs-edf: edf_budget_probes = %d, edf_window_bound_skips = %d, want both > 0", probes, skips)
	}
	if probes, skips := counts("acceptance-general"); probes != 0 || skips != 0 {
		t.Errorf("acceptance-general: edf_budget_probes = %d, edf_window_bound_skips = %d, want 0", probes, skips)
	}
}

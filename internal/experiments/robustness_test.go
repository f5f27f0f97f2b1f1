package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// cancelAfterWriter cancels a context on its nth Write. Hooked up as the
// Progress writer it cancels deterministically between sweep points: each
// completed point emits exactly one progress write
// (TestProgressOneLinePerPoint pins this).
type cancelAfterWriter struct {
	cancel context.CancelFunc
	after  int
	n      int
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n == w.after {
		w.cancel()
	}
	return len(p), nil
}

func TestParEachIsolatesPanics(t *testing.T) {
	cfg := Config{Workers: 4}
	n := 50
	done := make([]bool, n)
	err := cfg.parEach(123, n, func(i int, r *rand.Rand, _ *Workspace) {
		if i == 17 {
			panic("boom")
		}
		done[i] = true
	})
	var se *SampleError
	if !errors.As(err, &se) {
		t.Fatalf("want *SampleError, got %v (%T)", err, err)
	}
	if se.Index != 17 || se.BaseSeed != 123 {
		t.Errorf("bad attribution: index=%d base=%d", se.Index, se.BaseSeed)
	}
	if se.Seed != 123+17*0x9E3779B9 {
		t.Errorf("seed %d does not match the derivation rule", se.Seed)
	}
	if se.PanicValue != "boom" {
		t.Errorf("panic value %q", se.PanicValue)
	}
	if !strings.Contains(se.Stack, "robustness_test") {
		t.Errorf("stack does not point at the panic site:\n%s", se.Stack)
	}
	for i, d := range done {
		if i != 17 && !d {
			t.Fatalf("sibling sample %d did not run", i)
		}
	}
}

func TestMidSweepCancellationReturnsPartialRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Seed: 7, SetsPerPoint: 25, Quick: true, Workers: 2,
		Progress: &cancelAfterWriter{cancel: cancel, after: 1}}.WithContext(ctx)
	before := runtime.NumGoroutine()
	tables, err := AcceptanceGeneral(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(tables) != 1 {
		t.Fatalf("want 1 partial table, got %d", len(tables))
	}
	// The quick sweep has 4 points; cancelling after the first completed
	// point must keep it and drop the rest.
	if got := len(tables[0].Rows); got < 1 || got >= 4 {
		t.Fatalf("partial table has %d rows, want 1..3", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked across cancellation: %d before, %d after", before, n)
	}
}

func TestCancelledBeforeStartComputesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Seed: 7, SetsPerPoint: 10, Quick: true, Workers: 2}.WithContext(ctx)
	tables, err := AcceptanceGeneral(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 0 {
		t.Fatalf("pre-cancelled run produced rows: %+v", tables)
	}
}

// writeRecorder keeps every Write it receives as a separate string.
type writeRecorder struct{ writes []string }

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// TestProgressOneLinePerPoint pins the per-point progress contract: a sweep
// writes exactly one "<label>: <point> done" line per completed point, each
// in its own Write, in sweep order.
func TestProgressOneLinePerPoint(t *testing.T) {
	var w writeRecorder
	cfg := Config{Seed: 7, SetsPerPoint: 10, Quick: true, Workers: 2, Progress: &w}
	if _, err := AcceptanceGeneral(cfg); err != nil {
		t.Fatal(err)
	}
	_, points := generalParams(true)
	if len(w.writes) != len(points) {
		t.Fatalf("%d progress writes for %d points: %q", len(w.writes), len(points), w.writes)
	}
	for i, p := range points {
		want := fmt.Sprintf("acceptance-general: U_M=%.3f done\n", p)
		if w.writes[i] != want {
			t.Errorf("write %d = %q, want %q", i, w.writes[i], want)
		}
	}
}

func TestInjectedSamplePanicIsSeedReproducible(t *testing.T) {
	defer faultinject.Disarm()
	e, ok := Find("acceptance-general")
	if !ok {
		t.Fatal("acceptance-general missing")
	}
	// Single worker: fault-site ordinals are deterministic (package caveat),
	// so two runs must fail at the identical sample.
	cfg := Config{Seed: 3, SetsPerPoint: 10, Quick: true, Workers: 1}
	run := func() *SampleError {
		t.Helper()
		faultinject.Arm(faultinject.Plan{Seed: 99, SamplePanicEvery: 7})
		tables, err := Run(e, cfg)
		if err == nil {
			t.Fatal("injected panics produced no error")
		}
		var se *SampleError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v (%T), want *SampleError", err, err)
		}
		if len(tables) != 1 {
			t.Fatalf("failing run returned no partial table")
		}
		return se
	}
	a := run()
	b := run()
	if a.Point != b.Point || a.Index != b.Index || a.BaseSeed != b.BaseSeed || a.Seed != b.Seed {
		t.Fatalf("injected failure is not reproducible:\n%+v\n%+v", a, b)
	}
	if a.Experiment != "acceptance-general" {
		t.Errorf("experiment attribution %q", a.Experiment)
	}
	if a.Point < 0 {
		t.Errorf("sweep point not attributed: %d", a.Point)
	}
	if a.Seed != a.BaseSeed+int64(a.Index)*0x9E3779B9 {
		t.Errorf("seed %d does not match the derivation rule", a.Seed)
	}
	if a.PanicValue != faultinject.PanicValue {
		t.Errorf("panic value %q", a.PanicValue)
	}
	if a.Repro() == "" || a.Stack == "" {
		t.Error("missing repro recipe or stack")
	}
}

func TestInjectedRTAAbortNeverCrashes(t *testing.T) {
	defer faultinject.Disarm()
	e, ok := Find("acceptance-general")
	if !ok {
		t.Fatal("acceptance-general missing")
	}
	faultinject.Arm(faultinject.Plan{Seed: 5, RTAAbortEvery: 20})
	cfg := Config{Seed: 3, SetsPerPoint: 10, Quick: true, Workers: 2}
	_, err := Run(e, cfg)
	// Forced iteration-cap aborts degrade to "not schedulable" verdicts; if
	// a cross-check trips on the inconsistency it must surface as an
	// isolated SampleError, never as an unrecovered panic.
	if err != nil {
		var se *SampleError
		if !errors.As(err, &se) {
			t.Fatalf("rta aborts surfaced as a non-sample error: %v", err)
		}
	}
	if faultinject.Fired(faultinject.RTAAbort) == 0 {
		t.Fatal("no rta aborts fired — the injection site is dead")
	}
}

// TestParanoidRunMatchesDefault pins that the paranoid re-validation is
// observation-only: it never alters experiment output, it only panics (into
// a SampleError) when an invariant is broken.
func TestParanoidRunMatchesDefault(t *testing.T) {
	e, ok := Find("acceptance-general")
	if !ok {
		t.Fatal("acceptance-general missing")
	}
	base := Config{Seed: 5, SetsPerPoint: 10, Quick: true, Workers: 2}
	want := render(mustRun(t, e, base))
	p := base
	p.Paranoid = true
	if got := render(mustRun(t, e, p)); got != want {
		t.Fatal("paranoid validation altered the table output")
	}
}

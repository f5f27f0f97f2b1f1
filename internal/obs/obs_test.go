package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// withEnabled runs f with instrumentation globally enabled and restores the
// disabled default afterwards.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	SetEnabled(true)
	defer SetEnabled(false)
	f()
}

func TestCounterDisabledIsNoOp(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	SetEnabled(false)
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter accumulated %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	withEnabled(t, func() {
		const workers, per = 8, 10_000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
		if got := c.Value(); got != workers*per {
			t.Fatalf("concurrent count = %d, want %d", got, workers*per)
		}
	})
}

func TestRegistryCounterIsIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name returned distinct counters")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 2, 4, 8)
	withEnabled(t, func() {
		for _, v := range []int64{1, 2, 2, 3, 8, 9, 100} {
			h.Observe(v)
		}
	})
	s := r.Snapshot()
	hv, ok := s.GetHistogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hv.Count != 7 {
		t.Fatalf("count = %d, want 7", hv.Count)
	}
	if hv.Sum != 1+2+2+3+8+9+100 {
		t.Fatalf("sum = %d", hv.Sum)
	}
	if hv.Max != 100 {
		t.Fatalf("max = %d, want 100", hv.Max)
	}
	if got := hv.Mean(); got != float64(hv.Sum)/7 {
		t.Fatalf("mean = %v", got)
	}
	// Buckets: ≤1:1, ≤2:2, ≤4:1, ≤8:1, overflow:2.
	want := []struct {
		upper, count int64
	}{{1, 1}, {2, 2}, {4, 1}, {8, 1}, {-1, 2}}
	if len(hv.Buckets) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(hv.Buckets), len(want))
	}
	for i, w := range want {
		if hv.Buckets[i].Upper != w.upper || hv.Buckets[i].Count != w.count {
			t.Fatalf("bucket %d = %+v, want %+v", i, hv.Buckets[i], w)
		}
	}
}

func TestHistogramDisabledIsNoOp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	SetEnabled(false)
	h.Observe(5)
	if hv, _ := r.Snapshot().GetHistogram("h"); hv.Count != 0 {
		t.Fatalf("disabled histogram observed %d values", hv.Count)
	}
}

func TestSnapshotSortedAndReset(t *testing.T) {
	r := NewRegistry()
	b := r.Counter("b")
	a := r.Counter("a")
	withEnabled(t, func() {
		a.Add(1)
		b.Add(2)
	})
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("snapshot not name-sorted: %+v", s.Counters)
	}
	if s.Get("b") != 2 || s.Get("missing") != 0 {
		t.Fatalf("Get mismatch: %+v", s.Counters)
	}
	r.Reset()
	if r.Value("a") != 0 || r.Value("b") != 0 {
		t.Fatal("Reset did not zero counters")
	}
	if a != r.Counter("a") {
		t.Fatal("Reset invalidated registered counter objects")
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("calls")
	h := r.Histogram("iters", 2, 4)
	withEnabled(t, func() {
		c.Add(3)
		h.Observe(3)
	})
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"calls 3", "iters count=1 mean=3.00 max=3", "≤4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	SetEnabled(false)
	if d := r.StartSpan("off").End(); d != 0 {
		t.Fatalf("disabled span measured %v", d)
	}
	withEnabled(t, func() {
		sp := r.StartSpan("phase")
		time.Sleep(time.Millisecond)
		if sp.End() <= 0 {
			t.Fatal("enabled span measured nothing")
		}
	})
	s := r.Snapshot()
	if len(s.Spans) != 1 || s.Spans[0].Name != "phase" || s.Spans[0].Seconds <= 0 {
		t.Fatalf("spans = %+v", s.Spans)
	}
	r.Reset()
	if len(r.Snapshot().Spans) != 0 {
		t.Fatal("Reset kept completed spans")
	}
}

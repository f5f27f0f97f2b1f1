package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestRequestRingEvictionOrder fills a small ring past capacity and checks
// that Snapshot returns the retained records newest-first with the oldest
// evicted — the /debug/requests contract.
func TestRequestRingEvictionOrder(t *testing.T) {
	rr := NewRequestRing(3)
	for i := 0; i < 5; i++ {
		rr.Record(RequestRecord{ID: fmt.Sprintf("req-%d", i), Status: 500})
	}
	got := rr.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d records, want 3", len(got))
	}
	for i, want := range []string{"req-4", "req-3", "req-2"} {
		if got[i].ID != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, got[i].ID, want)
		}
	}
}

// TestRequestRingPartial checks newest-first ordering before the ring has
// wrapped (the append-path branch of Record).
func TestRequestRingPartial(t *testing.T) {
	rr := NewRequestRing(8)
	rr.Record(RequestRecord{ID: "a"})
	rr.Record(RequestRecord{ID: "b"})
	got := rr.Snapshot()
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "a" {
		t.Fatalf("snapshot = %+v, want [b a]", got)
	}
}

// TestRequestRingNilSafe pins the disabled-tracing path: a nil ring must
// absorb records, snapshot to nil, and still render a well-formed
// /debug/requests document.
func TestRequestRingNilSafe(t *testing.T) {
	var rr *RequestRing
	rr.Record(RequestRecord{ID: "dropped"}) // must not panic
	if s := rr.Snapshot(); s != nil {
		t.Errorf("nil ring snapshot = %v, want nil", s)
	}
	var w bytes.Buffer
	if err := rr.WriteJSON(&w); err != nil {
		t.Fatalf("nil ring WriteJSON: %v", err)
	}
	var body struct {
		Requests []RequestRecord `json:"requests"`
	}
	if err := json.Unmarshal(w.Bytes(), &body); err != nil {
		t.Fatalf("nil ring body: %v\n%s", err, w.String())
	}
	if body.Requests == nil || len(body.Requests) != 0 {
		t.Errorf("nil ring requests = %v, want []", body.Requests)
	}
}

// TestRequestRingHandler checks the JSON envelope the /debug/requests
// handler serves: schema, capacity, the lifetime total (which outlives
// eviction), and the records themselves.
func TestRequestRingHandler(t *testing.T) {
	rr := NewRequestRing(2)
	for i := 0; i < 3; i++ {
		rr.Record(RequestRecord{ID: fmt.Sprintf("r%d", i), Method: "POST", Route: "admit", Status: 429, DurUS: 12})
	}
	var w bytes.Buffer
	if err := rr.WriteJSON(&w); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var body struct {
		Schema   int             `json:"schema"`
		Capacity int             `json:"capacity"`
		Total    int64           `json:"total"`
		Requests []RequestRecord `json:"requests"`
	}
	if err := json.Unmarshal(w.Bytes(), &body); err != nil {
		t.Fatalf("body: %v\n%s", err, w.String())
	}
	if body.Schema != SnapshotSchemaVersion || body.Capacity != 2 || body.Total != 3 {
		t.Errorf("envelope = %+v, want schema %d cap 2 total 3", body, SnapshotSchemaVersion)
	}
	if len(body.Requests) != 2 || body.Requests[0].ID != "r2" || body.Requests[0].Status != 429 {
		t.Errorf("requests = %+v", body.Requests)
	}
}

// TestRequestRingConcurrent hammers Record and Snapshot from many
// goroutines; run under -race this pins the locking discipline.
func TestRequestRingConcurrent(t *testing.T) {
	rr := NewRequestRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rr.Record(RequestRecord{ID: fmt.Sprintf("g%d-%d", g, i)})
				if i%16 == 0 {
					rr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := rr.Snapshot(); len(got) != 16 {
		t.Fatalf("retained %d, want 16", len(got))
	}
}

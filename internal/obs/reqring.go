package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// RequestRecord is one entry of the slow/errored-request ring: enough to
// answer "what went wrong with request X" (correlating with the access log
// and journal via the request ID) without shipping a tracing stack.
type RequestRecord struct {
	ID     string    `json:"id"`
	Time   time.Time `json:"time"`
	Method string    `json:"method"`
	Route  string    `json:"route"`
	Path   string    `json:"path"`
	Tenant string    `json:"tenant,omitempty"`
	Status int       `json:"status"`
	DurUS  int64     `json:"dur_us"`
	// Verdict/Cause carry admission outcomes ("accepted"/"rejected" and the
	// partition cause) so a slow rejection is distinguishable from a slow
	// acceptance at a glance.
	Verdict string `json:"verdict,omitempty"`
	Cause   string `json:"cause,omitempty"`
}

// DefaultRequestRingSize is the ring capacity when none is given.
const DefaultRequestRingSize = 256

// RequestRing is a fixed-capacity ring of recent interesting requests
// (errored or slower than the caller's threshold — the caller decides what
// to Record). It is safe for concurrent use; a nil ring is a valid no-op so
// tracing can be wired unconditionally and disabled by configuration.
type RequestRing struct {
	mu    sync.Mutex
	buf   []RequestRecord
	next  int
	total int64
}

// NewRequestRing returns a ring holding the last capacity records
// (DefaultRequestRingSize when capacity ≤ 0).
func NewRequestRing(capacity int) *RequestRing {
	if capacity <= 0 {
		capacity = DefaultRequestRingSize
	}
	return &RequestRing{buf: make([]RequestRecord, 0, capacity)}
}

// Record appends rec, evicting the oldest entry once the ring is full.
// No-op on a nil ring.
func (rr *RequestRing) Record(rec RequestRecord) {
	if rr == nil {
		return
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.total++
	if len(rr.buf) < cap(rr.buf) {
		rr.buf = append(rr.buf, rec)
		return
	}
	rr.buf[rr.next] = rec
	rr.next = (rr.next + 1) % len(rr.buf)
}

// Snapshot returns the ring's records newest-first. Nil ring → nil.
func (rr *RequestRing) Snapshot() []RequestRecord {
	if rr == nil {
		return nil
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	out := make([]RequestRecord, 0, len(rr.buf))
	// Entries are oldest at rr.next (once wrapped); walk backwards from the
	// newest so the HTTP view leads with the most recent incident.
	for i := 0; i < len(rr.buf); i++ {
		idx := (rr.next - 1 - i + 2*len(rr.buf)) % len(rr.buf)
		out = append(out, rr.buf[idx])
	}
	return out
}

// WriteJSON renders the ring as the GET /debug/requests body: capacity,
// the lifetime count of recorded (not just retained) requests, and the
// retained records newest-first. A nil ring renders an empty document.
func (rr *RequestRing) WriteJSON(w io.Writer) error {
	var (
		recs     = rr.Snapshot()
		capacity int
		total    int64
	)
	if rr != nil {
		rr.mu.Lock()
		capacity = cap(rr.buf)
		total = rr.total
		rr.mu.Unlock()
	}
	if recs == nil {
		recs = []RequestRecord{} // render [] rather than null
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Schema   int             `json:"schema"`
		Capacity int             `json:"capacity"`
		Total    int64           `json:"total"`
		Requests []RequestRecord `json:"requests"`
	}{Schema: SnapshotSchemaVersion, Capacity: capacity, Total: total, Requests: recs})
}

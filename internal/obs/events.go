package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventSchemaVersion stamps the run-start record of every event log. The
// bump policy matches SnapshotSchemaVersion: renames/retypes/removals bump,
// additive optional fields do not. ValidateEventLog rejects logs whose
// run-start carries a different schema.
//
// v2: point-done events gained the Rejections cause breakdown (per-algorithm
// rejection-cause counters from the partition cause taxonomy). The bump is
// deliberate despite the field being additive: v2 validators enforce the
// rejections vocabulary, and consumers keying analytics off the breakdown
// must not silently read v1 logs that predate cause attribution.
//
// v3: the point-restored and checkpoint kinds are gone with the sweep
// checkpointer; a v3 validator rejects them.
const EventSchemaVersion = 3

// Run-event vocabulary. One run (a cmd/experiments invocation) brackets the
// stream with run-start/run-end; each experiment brackets its points with
// experiment-start/experiment-end; point-done records a completed sweep
// point; sample-error carries the repro seeds of an isolated sample
// failure; error is a non-sample run failure (generator misconfiguration,
// cancellation).
const (
	EvRunStart        = "run-start"
	EvRunEnd          = "run-end"
	EvExperimentStart = "experiment-start"
	EvExperimentEnd   = "experiment-end"
	EvPointDone       = "point-done"
	EvSampleError     = "sample-error"
	EvError           = "error"
)

// knownEventKinds is the closed vocabulary ValidateEventLog accepts.
var knownEventKinds = map[string]bool{
	EvRunStart: true, EvRunEnd: true,
	EvExperimentStart: true, EvExperimentEnd: true,
	EvPointDone: true, EvSampleError: true, EvError: true,
}

// RunEvent is one flight-recorder record. Seq is the 0-based position in
// the stream; Ms is wall-clock milliseconds since the recorder was opened
// and is the only nondeterministic field — every other populated field of a
// fixed-seed run is byte-identical across runs and worker counts (the
// experiments event-stream golden test pins this). Point and Sample are
// 1-based so that zero always means "not applicable" under omitempty.
type RunEvent struct {
	Seq  int64  `json:"seq"`
	Ms   int64  `json:"ms"`
	Kind string `json:"kind"`

	// run-start fields.
	Schema    int    `json:"schema,omitempty"`
	GoVersion string `json:"go,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Sets      int    `json:"sets,omitempty"`
	Quick     bool   `json:"quick,omitempty"`
	Workers   int    `json:"workers,omitempty"`

	// Experiment names the registry key; Label the sweep/table id (they
	// differ for multi-table experiments such as acceptance-kchains).
	Experiment string `json:"experiment,omitempty"`
	Label      string `json:"label,omitempty"`
	// Point is the 1-based sweep point; Points the sweep length.
	Point  int `json:"point,omitempty"`
	Points int `json:"points,omitempty"`
	// Tables is the number of tables an experiment produced.
	Tables int `json:"tables,omitempty"`

	// Counters holds the per-point deltas of the deterministic analysis
	// counters (RTA iterations, warm-starts, splits, arena recycling, ...)
	// accumulated while the point was computed; only counters that moved
	// are listed. Empty when metric collection is disabled.
	Counters []CounterValue `json:"counters,omitempty"`

	// Rejections breaks the point's rejected samples down by algorithm and
	// cause (the partition cause taxonomy, kebab-case names). Only causes
	// that occurred are listed, in (algorithm, cause) declaration order, so
	// the stream stays deterministic. Present on point-done events of sweeps
	// that attribute causes; empty otherwise.
	Rejections []RejectCount `json:"rejections,omitempty"`

	// sample-error fields: the 1-based failing sample plus the seeds that
	// regenerate it bit for bit (see experiments.SampleError).
	Sample     int    `json:"sample,omitempty"`
	BaseSeed   int64  `json:"base_seed,omitempty"`
	SampleSeed int64  `json:"sample_seed,omitempty"`
	Panic      string `json:"panic,omitempty"`

	// Err carries the message of experiment-end/error events.
	Err string `json:"err,omitempty"`
}

// RejectCount is one cell of a point's rejection-cause breakdown: within
// one algorithm's column, N samples were rejected for Cause.
type RejectCount struct {
	Algo  string `json:"algo"`
	Cause string `json:"cause"`
	N     int64  `json:"n"`
}

// Recorder writes RunEvents as one JSON object per line (JSONL). It is
// safe for concurrent use and buffered: events are encoded under a mutex
// into a bufio.Writer and flushed on Close (and after every event bearing
// an error, so a crash loses at most trailing non-error records). Emission
// happens only at sweep-point and run granularity — never per sample — so
// the recorder is structurally off the analysis hot path.
//
// A nil *Recorder is a valid no-op, mirroring *Trace: harness code holds an
// optional recorder and calls it unconditionally.
type Recorder struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	c     io.Closer
	start time.Time
	seq   int64
	err   error
}

// NewRecorder returns a recorder writing JSONL to w. If w is also an
// io.Closer, Close closes it after the final flush.
func NewRecorder(w io.Writer) *Recorder {
	r := &Recorder{bw: bufio.NewWriter(w), start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		r.c = c
	}
	return r
}

// Emit stamps e's Seq and Ms and appends it to the stream. Encoding errors
// are sticky: the first one is kept (see Err) and later events are dropped.
// No-op on a nil recorder.
func (r *Recorder) Emit(e RunEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	e.Seq = r.seq
	e.Ms = time.Since(r.start).Milliseconds()
	data, err := json.Marshal(e)
	if err != nil {
		r.err = err
		return
	}
	r.seq++
	data = append(data, '\n')
	if _, err := r.bw.Write(data); err != nil {
		r.err = err
		return
	}
	// Error-bearing events are the ones a post-mortem needs; push them to
	// the OS immediately.
	if e.Kind == EvSampleError || e.Kind == EvError || e.Err != "" {
		r.err = r.bw.Flush()
	}
}

// Err returns the first write or encoding error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close flushes the stream and closes the underlying writer when it is
// closable. It returns the first error seen over the recorder's lifetime.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	if r.c != nil {
		if err := r.c.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// DiffCounters returns after-minus-before for every counter that moved (or
// appeared) between two snapshots, preserving after's name order. It is the
// per-point delta attribution used by point-done events.
func DiffCounters(before, after Snapshot) []CounterValue {
	prev := make(map[string]int64, len(before.Counters))
	for _, c := range before.Counters {
		prev[c.Name] = c.Value
	}
	var out []CounterValue
	for _, c := range after.Counters {
		if d := c.Value - prev[c.Name]; d != 0 {
			out = append(out, CounterValue{Name: c.Name, Value: d})
		}
	}
	return out
}

// ValidateEventLog strictly parses a JSONL event stream: every line must be
// a RunEvent with no unknown fields, the first record must be run-start
// carrying the supported schema version, Seq must equal the line position,
// and every Kind must belong to the known vocabulary. It returns the number
// of validated events. An empty stream is an error — even an aborted run
// writes its run-start.
func ValidateEventLog(rd io.Reader) (int, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			return n, fmt.Errorf("event %d: empty line", n)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var e RunEvent
		if err := dec.Decode(&e); err != nil {
			return n, fmt.Errorf("event %d: %w", n, err)
		}
		if e.Seq != int64(n) {
			return n, fmt.Errorf("event %d: seq %d out of order", n, e.Seq)
		}
		if !knownEventKinds[e.Kind] {
			return n, fmt.Errorf("event %d: unknown kind %q", n, e.Kind)
		}
		if n == 0 {
			if e.Kind != EvRunStart {
				return n, fmt.Errorf("event 0: stream must open with %s, got %s", EvRunStart, e.Kind)
			}
			if e.Schema != EventSchemaVersion {
				return n, fmt.Errorf("event 0: schema %d, supported %d", e.Schema, EventSchemaVersion)
			}
		}
		for j, rc := range e.Rejections {
			switch {
			case e.Kind != EvPointDone:
				return n, fmt.Errorf("event %d: rejections on a %s event (only %s carries them)", n, e.Kind, EvPointDone)
			case rc.Algo == "":
				return n, fmt.Errorf("event %d: rejections[%d] has no algorithm", n, j)
			case rc.Cause == "":
				return n, fmt.Errorf("event %d: rejections[%d] has no cause", n, j)
			case rc.N <= 0:
				return n, fmt.Errorf("event %d: rejections[%d] (%s/%s) has non-positive count %d", n, j, rc.Algo, rc.Cause, rc.N)
			}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("empty event log")
	}
	return n, nil
}

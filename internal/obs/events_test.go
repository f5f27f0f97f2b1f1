package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// record writes a small but fully populated event stream and returns the
// JSONL bytes.
func record(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Emit(RunEvent{Kind: EvRunStart, Schema: EventSchemaVersion, GoVersion: "go1.24.0",
		Seed: 7, Sets: 16, Quick: true, Workers: 4})
	rec.Emit(RunEvent{Kind: EvExperimentStart, Experiment: "acceptance-general"})
	rec.Emit(RunEvent{Kind: EvPointDone, Experiment: "acceptance-general",
		Label: "acceptance-general", Point: 1, Points: 4,
		Counters: []CounterValue{{Name: "rta.iters", Value: 123}},
		Rejections: []RejectCount{
			{Algo: "SPA2", Cause: "threshold-exhausted", N: 9},
			{Algo: "RM-TS", Cause: "maxsplit-exhausted", N: 2},
		}})
	rec.Emit(RunEvent{Kind: EvSampleError, Experiment: "acceptance-general", Point: 3,
		Sample: 5, BaseSeed: 99, SampleSeed: 99 + 4*0x9E3779B9, Panic: "boom"})
	rec.Emit(RunEvent{Kind: EvExperimentEnd, Experiment: "acceptance-general", Tables: 1})
	rec.Emit(RunEvent{Kind: EvRunEnd})
	if err := rec.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// TestEventLogRoundTrip validates a recorded stream and pins the JSONL
// schema: one object per line, sequential seq stamps, and exactly the
// expected key sets per event kind (field-stable golden).
func TestEventLogRoundTrip(t *testing.T) {
	data := record(t)
	n, err := ValidateEventLog(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, data)
	}
	if n != 6 {
		t.Fatalf("validated %d events, want 6", n)
	}

	// Golden key sets: a new field on an event kind must be added here
	// deliberately (and the schema policy consulted).
	wantKeys := []string{
		"seq ms kind schema go seed sets quick workers",
		"seq ms kind experiment",
		"seq ms kind experiment label point points counters rejections",
		"seq ms kind experiment point sample base_seed sample_seed panic",
		"seq ms kind experiment tables",
		"seq ms kind",
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != len(wantKeys) {
		t.Fatalf("%d lines, want %d", len(lines), len(wantKeys))
	}
	for i, line := range lines {
		// Key order in the marshalled struct is declaration order; rebuild
		// it from the raw line to compare stably. Each top-level value is
		// skipped as a unit — dec.More() tracks the innermost container, so
		// a naive walk would stop at the first nested array's end and miss
		// every key after it.
		var keys []string
		dec := json.NewDecoder(strings.NewReader(line))
		if _, err := dec.Token(); err != nil { // {
			t.Fatalf("line %d: %v", i, err)
		}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			keys = append(keys, tok.(string))
			if err := skipValue(dec); err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
		}
		if got := strings.Join(keys, " "); got != wantKeys[i] {
			t.Errorf("line %d keys drifted:\n  want %q\n  got  %q", i, wantKeys[i], got)
		}
	}
}

// skipValue consumes one complete JSON value (scalar or nested structure)
// from dec.
func skipValue(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); ok && (d == '{' || d == '[') {
		depth := 1
		for depth > 0 {
			tok, err := dec.Token()
			if err != nil {
				return err
			}
			if d, ok := tok.(json.Delim); ok {
				switch d {
				case '{', '[':
					depth++
				case '}', ']':
					depth--
				}
			}
		}
	}
	return nil
}

// TestValidateEventLogRejections exercises the validator's failure modes.
func TestValidateEventLogRejections(t *testing.T) {
	good := string(record(t))
	start := fmt.Sprintf(`{"seq":0,"ms":0,"kind":"run-start","schema":%d}`+"\n", EventSchemaVersion)
	cases := map[string]string{
		"empty":          "",
		"not json":       "hello\n",
		"unknown field":  fmt.Sprintf(`{"seq":0,"ms":0,"kind":"run-start","schema":%d,"bogus":1}`+"\n", EventSchemaVersion),
		"unknown kind":   start + `{"seq":1,"ms":0,"kind":"mystery"}` + "\n",
		"no run-start":   `{"seq":0,"ms":0,"kind":"run-end"}` + "\n",
		"wrong schema":   `{"seq":0,"ms":0,"kind":"run-start","schema":99}` + "\n",
		"seq regression": strings.Replace(good, `"seq":3`, `"seq":7`, 1),

		"rejections off point-done": start +
			`{"seq":1,"ms":0,"kind":"experiment-end","rejections":[{"algo":"A","cause":"c","n":1}]}` + "\n",
		// v3 retired the checkpointer's kinds.
		"retired checkpoint":     start + `{"seq":1,"ms":0,"kind":"checkpoint","points":2}` + "\n",
		"retired point-restored": start + `{"seq":1,"ms":0,"kind":"point-restored","point":2}` + "\n",
		"rejection no algo": start +
			`{"seq":1,"ms":0,"kind":"point-done","rejections":[{"algo":"","cause":"c","n":1}]}` + "\n",
		"rejection no cause": start +
			`{"seq":1,"ms":0,"kind":"point-done","rejections":[{"algo":"A","cause":"","n":1}]}` + "\n",
		"rejection zero count": start +
			`{"seq":1,"ms":0,"kind":"point-done","rejections":[{"algo":"A","cause":"c","n":0}]}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateEventLog(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted invalid log", name)
		}
	}
}

// TestRecorderNilSafe mirrors the Trace contract: a nil recorder is a
// usable no-op.
func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Emit(RunEvent{Kind: EvRunStart})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDiffCounters checks delta attribution: moved and newly appearing
// counters are reported, unchanged ones suppressed.
func TestDiffCounters(t *testing.T) {
	before := Snapshot{Counters: []CounterValue{{"a", 10}, {"b", 5}}}
	after := Snapshot{Counters: []CounterValue{{"a", 10}, {"b", 9}, {"c", 3}}}
	got := DiffCounters(before, after)
	want := []CounterValue{{"b", 4}, {"c", 3}}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delta %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

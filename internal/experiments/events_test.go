package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// recordE2Events runs acceptance-general at quick scale with an event
// recorder attached and returns the JSONL stream (bracketed by the
// run-start/run-end records cmd/experiments would emit).
func recordE2Events(t *testing.T, workers int, seed int64) []byte {
	t.Helper()
	e, ok := Find("acceptance-general")
	if !ok {
		t.Fatal("acceptance-general not registered")
	}
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	rec.Emit(obs.RunEvent{Kind: obs.EvRunStart, Schema: obs.EventSchemaVersion,
		Seed: seed, Sets: 16, Quick: true, Workers: workers})
	obs.Reset()
	_, _, err := RunWithMetrics(e, Config{Seed: seed, SetsPerPoint: 16, Quick: true,
		Workers: workers, Events: rec})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.Emit(obs.RunEvent{Kind: obs.EvRunEnd})
	if err := rec.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// stripMs zeroes the fields the determinism contract excludes: the
// wall-clock ms stamp, and the worker count the run-start record documents
// (it reflects the actual configuration, which this test varies on
// purpose).
func stripMs(t *testing.T, stream []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimRight(stream, "\n"), []byte("\n")) {
		var e obs.RunEvent
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad event line %s: %v", line, err)
		}
		e.Ms = 0
		e.Workers = 0
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(data)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestEventStreamGolden pins the event-stream schema and its determinism:
// the stream validates, and with the ms stamp zeroed it is byte-identical
// across runs and across worker counts at a fixed seed — including the
// per-point counter deltas, which inherit the worker-invariance of the obs
// counters.
func TestEventStreamGolden(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	first := recordE2Events(t, 1, 7)
	if n, err := obs.ValidateEventLog(bytes.NewReader(first)); err != nil {
		t.Fatalf("stream does not validate: %v\n%s", err, first)
	} else if n < 6 { // run-start, experiment-start, ≥4 points (quick sweep is 4 points at minimum), experiment-end, run-end
		t.Fatalf("suspiciously short stream (%d events):\n%s", n, first)
	}

	base := stripMs(t, first)
	for _, workers := range []int{1, 8} {
		got := stripMs(t, recordE2Events(t, workers, 7))
		if !bytes.Equal(got, base) {
			t.Errorf("event stream diverged at workers=%d:\n--- base\n%s--- got\n%s", workers, base, got)
		}
	}

	// Spot-check the content: every sweep point appears as point-done with
	// nonzero RTA-iteration attribution.
	var points, withRTA int
	for _, line := range bytes.Split(bytes.TrimRight(first, "\n"), []byte("\n")) {
		var e obs.RunEvent
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == obs.EvPointDone {
			points++
			if (obs.Snapshot{Counters: e.Counters}).Get("rta.iterations") > 0 {
				withRTA++
			}
		}
	}
	if points == 0 || points != withRTA {
		t.Errorf("point-done events: %d total, %d with rta.iters deltas", points, withRTA)
	}
}

// TestEventStreamDisabledObs checks the -events-without--metrics shape:
// the stream still validates, points are still recorded, counter deltas are
// simply absent.
func TestEventStreamDisabledObs(t *testing.T) {
	obs.SetEnabled(false)
	stream := recordE2Events(t, 2, 3)
	if _, err := obs.ValidateEventLog(bytes.NewReader(stream)); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !bytes.Contains(stream, []byte(`"kind":"point-done"`)) {
		t.Fatalf("no point-done events:\n%s", stream)
	}
	if bytes.Contains(stream, []byte(`"counters"`)) {
		t.Fatalf("counter deltas present with obs disabled:\n%s", stream)
	}
}

// TestEventStreamSampleError arms the sample-panic fault site and requires
// the stream to carry a sample-error record whose seeds match the
// SampleError returned by the run.
func TestEventStreamSampleError(t *testing.T) {
	defer faultinject.Disarm()
	e, _ := Find("acceptance-general")
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	faultinject.Arm(faultinject.Plan{Seed: 99, SamplePanicEvery: 7})
	_, err := Run(e, Config{Seed: 7, SetsPerPoint: 16, Quick: true, Workers: 1, Events: rec})
	faultinject.Disarm()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var se *SampleError
	if !errors.As(err, &se) {
		t.Fatalf("expected SampleError, got %v", err)
	}
	var found bool
	for _, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		var ev obs.RunEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == obs.EvSampleError {
			found = true
			if ev.Point != se.Point+1 || ev.Sample != se.Index+1 ||
				ev.BaseSeed != se.BaseSeed || ev.SampleSeed != se.Seed || ev.Panic == "" {
				t.Errorf("sample-error event %+v does not match %+v", ev, se)
			}
		}
	}
	if !found {
		t.Fatalf("no sample-error event in stream:\n%s", buf.Bytes())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"kind":"experiment-end"`)) ||
		!bytes.Contains(buf.Bytes(), []byte(`"err"`)) {
		t.Errorf("experiment-end with err missing:\n%s", buf.Bytes())
	}
}

// TestStatusEndpointsDuringRun serves the obs status mux — the one
// cmd/admitd mounts — over the Default registry while a quick-scale
// experiment runs, and checks that /metrics parses as a schema-versioned
// snapshot. The endpoint is polled concurrently with the run (under -race
// this covers snapshotting beside live counter writes); once the run
// settles, the snapshot must show its RTA work.
func TestStatusEndpointsDuringRun(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Reset()

	srv := httptest.NewServer(obs.StatusHandlerWith(obs.Default))
	defer srv.Close()

	e, _ := Find("acceptance-general")
	done := make(chan error, 1)
	go func() {
		_, err := Run(e, Config{Seed: 7, SetsPerPoint: 16, Quick: true, Workers: 2})
		done <- err
	}()
	// Poll once mid-run (best effort — the run may already be over) and
	// then assert on the settled state.
	fetchMetrics(t, srv)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if exp := fetchMetrics(t, srv); (obs.Snapshot{Counters: exp.Counters}).Get("rta.calls") == 0 {
		t.Fatalf("/metrics after the run shows no RTA calls: %+v", exp)
	}
}

func fetchMetrics(t *testing.T, srv *httptest.Server) obs.SnapshotExport {
	t.Helper()
	req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var exp obs.SnapshotExport
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if exp.Schema != obs.SnapshotSchemaVersion {
		t.Fatalf("/metrics schema %d, want %d", exp.Schema, obs.SnapshotSchemaVersion)
	}
	return exp
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// buildExperiments compiles the command under test into dir and returns the
// binary path.
func buildExperiments(t *testing.T, dir string) string {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := filepath.Join(dir, "experiments-under-test")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestSigintPrintsPartialTable is the process-level interrupt contract:
// build the binary, send SIGINT after its first completed sweep point, and
// require a drained exit — status 1, not death by the signal — with stdout
// carrying a prefix of the rows of an uninterrupted reference run.
func TestSigintPrintsPartialTable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildExperiments(t, dir)

	// One worker and 4000 sets per point keep each of the 17 points far
	// longer than signal delivery, so the interrupt lands mid-sweep.
	args := []string{"-run", "acceptance-general", "-sets", "4000", "-seed", "7", "-workers", "1"}
	ref, err := exec.Command(bin, append(append([]string{}, args...), "-q")...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Without -q each completed point prints one stderr progress line.
	if !bufio.NewScanner(stderr).Scan() {
		t.Fatal("no progress line before the run ended")
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signal: %v", err)
	}
	_, _ = io.Copy(io.Discard, stderr)
	err = cmd.Wait()
	if !cmd.ProcessState.Exited() {
		t.Fatalf("process died of the signal instead of draining: %v", cmd.ProcessState)
	}
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("interrupted run exited %d (%v), want 1", code, err)
	}

	got, want := tableRows(stdout.String()), tableRows(string(ref))
	if len(got) == 0 || len(got) > len(want) {
		t.Fatalf("interrupted run printed %d rows, reference %d\n%s", len(got), len(want), stdout.String())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs from the reference run\n got: %q\nwant: %q", i, got[i], want[i])
		}
	}
}

// tableRows returns the data rows of a rendered table: the lines between
// the dashed rule under the header and the first note or blank line.
func tableRows(out string) []string {
	var rows []string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "  --"):
			in = true
		case line == "" || strings.HasPrefix(line, "  note:"):
			in = false
		case in:
			rows = append(rows, line)
		}
	}
	return rows
}

// TestCSVStdoutPure is the regression test for the -csv -metrics stream
// corruption: stdout must carry only table data — `# <id> — <title>` table
// headers, CSV rows with a constant field count, and blank separators —
// with the metrics report routed to stderr.
func TestCSVStdoutPure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	bin := buildExperiments(t, t.TempDir())
	cmd := exec.Command(bin, "-run", "acceptance-general", "-quick", "-sets", "8", "-seed", "3", "-csv", "-metrics", "-q")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "# metrics acceptance-general") {
		t.Errorf("metrics report missing from stderr:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "# metrics") {
		t.Errorf("metrics report leaked into stdout:\n%s", stdout.String())
	}
	fields := -1
	for i, line := range strings.Split(stdout.String(), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# "):
			if !strings.Contains(line, "—") {
				t.Errorf("stdout line %d: unexpected comment %q", i+1, line)
			}
		default:
			n := strings.Count(line, ",")
			if fields == -1 {
				fields = n
			}
			if n != fields || n == 0 {
				t.Errorf("stdout line %d: %d commas, want %d: %q", i+1, n, fields, line)
			}
		}
	}
	if fields == -1 {
		t.Fatalf("no CSV rows on stdout:\n%s", stdout.String())
	}
}

// TestExportDoesNotAlterTables is the determinism acceptance gate for the
// telemetry exports: stdout with -events and -metrics-json both enabled
// must be byte-identical to a plain run, and the artifacts written
// on the side must be valid (the event log passes strict schema
// validation).
func TestExportDoesNotAlterTables(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildExperiments(t, dir)
	args := []string{"-run", "acceptance-general", "-quick", "-sets", "16", "-seed", "7", "-q"}
	ref, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	evPath := filepath.Join(dir, "events.jsonl")
	mPath := filepath.Join(dir, "metrics.json")
	exported, err := exec.Command(bin, append(append([]string{}, args...),
		"-events", evPath, "-metrics-json", mPath)...).Output()
	if err != nil {
		t.Fatalf("exporting run: %v", err)
	}
	if !bytes.Equal(exported, ref) {
		t.Fatalf("stdout changed with exports enabled\n--- reference\n%s--- exported\n%s", ref, exported)
	}

	ev, err := os.Open(evPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	n, err := obs.ValidateEventLog(ev)
	if err != nil {
		t.Fatalf("event log invalid: %v", err)
	}
	if n < 7 { // run-start + experiment-start + 4 points + experiment-end + run-end
		t.Errorf("event log suspiciously short: %d events", n)
	}

	data, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema int `json:"schema"`
		Runs   []struct {
			Key      string             `json:"key"`
			Counters []obs.CounterValue `json:"counters"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics-json: %v\n%s", err, data)
	}
	if doc.Schema != obs.SnapshotSchemaVersion || len(doc.Runs) != 1 ||
		doc.Runs[0].Key != "acceptance-general" ||
		(obs.Snapshot{Counters: doc.Runs[0].Counters}).Get("rta.calls") == 0 {
		t.Fatalf("metrics-json content wrong:\n%s", data)
	}
}

// TestFlagValidationExit2 checks the usage-error convention: unusable
// -events/-metrics-json paths exit 2 before any experiment work runs, and
// so do the retired -checkpoint, -resume, -listen and -progress flags,
// which are now unknown.
func TestFlagValidationExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	bin := buildExperiments(t, t.TempDir())
	base := []string{"-run", "acceptance-general", "-quick", "-sets", "4", "-q"}
	for name, tc := range map[string]struct {
		args []string
		msg  string
	}{
		"events dir":       {[]string{"-events", "/nonexistent-dir/ev.jsonl"}, "events:"},
		"metrics-json dir": {[]string{"-metrics-json", "/nonexistent-dir/m.json"}, "metrics-json:"},
		"checkpoint":       {[]string{"-checkpoint", filepath.Join(t.TempDir(), "cp.json")}, "flag provided but not defined: -checkpoint"},
		"resume":           {[]string{"-resume"}, "flag provided but not defined: -resume"},
		"listen":           {[]string{"-listen", "127.0.0.1:0"}, "flag provided but not defined: -listen"},
		"progress":         {[]string{"-progress"}, "flag provided but not defined: -progress"},
	} {
		cmd := exec.Command(bin, append(append([]string{}, base...), tc.args...)...)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), tc.msg) {
			t.Errorf("%s: err=%v (want exit 2 with %q)\n%s", name, err, tc.msg, out)
		}
	}
}

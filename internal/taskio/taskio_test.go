package taskio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/task"
)

func TestParseText(t *testing.T) {
	in := `
# avionics demo
imu   1 4
ctrl  2 8

10 40
`
	ts, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("got %d tasks", len(ts))
	}
	if ts[0].Name != "imu" || ts[0].C != 1 || ts[0].T != 4 {
		t.Errorf("task 0 = %v", ts[0])
	}
	if ts[2].Name != "t2" || ts[2].C != 10 || ts[2].T != 40 {
		t.Errorf("anonymous task = %v", ts[2])
	}
}

func TestParseJSON(t *testing.T) {
	in := `{"tasks": [{"name": "a", "c": 2, "t": 10}, {"c": 1, "t": 5}]}`
	ts, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Name != "a" || ts[1].Name != "t1" {
		t.Fatalf("parsed %v", ts)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1 2 3 4",                               // too many fields
		"a x 10",                                // bad C
		"a 1 y",                                 // bad T
		"a 5 4",                                 // C > T
		`{"tasks": [{"c": 0, "t": 5}]}`,         // invalid task
		`{"tasks": [{"c": 1, "t": 5}], "x": 1}`, // unknown field
		"",                                      // empty set
	}
	for _, in := range bad {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	ts := task.Set{{Name: "a", C: 2, T: 10}, {Name: "b", C: 3, T: 20}}
	var buf bytes.Buffer
	if err := Save(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("round trip lost tasks: %v", got)
	}
	for i := range ts {
		if got[i] != ts[i] {
			t.Errorf("task %d: %v vs %v", i, got[i], ts[i])
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.txt")
	if err := os.WriteFile(path, []byte("a 1 4\nb 2 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %v", ts)
	}
	if _, err := Load(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestParseJSONWhitespace(t *testing.T) {
	in := "\n\t {\"tasks\": [{\"c\": 1, \"t\": 5}]}\n"
	if _, err := Parse([]byte(in)); err != nil {
		t.Fatal(err)
	}
}

func TestSaveIsIndented(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, task.Set{{Name: "a", C: 1, T: 2}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n  ") {
		t.Error("output not indented")
	}
}

// TestParseDomainEdge pins the model's domain at the task-file edge: C, T
// and D at task.MaxTime parse, one tick more is refused with an error
// wrapping task.ErrDomain, in both formats and in a plan's fragments.
func TestParseDomainEdge(t *testing.T) {
	if _, err := Parse([]byte("top 17592186044416 17592186044416 17592186044416\n")); err != nil {
		t.Fatalf("text at MaxTime: %v", err)
	}
	if _, err := Parse([]byte(`{"tasks":[{"c":17592186044416,"t":17592186044416}]}`)); err != nil {
		t.Fatalf("JSON at MaxTime: %v", err)
	}
	for _, in := range []string{
		"past 1 17592186044417\n",
		`{"tasks":[{"c":1,"t":17592186044417}]}`,
	} {
		if _, err := Parse([]byte(in)); !errors.Is(err, task.ErrDomain) {
			t.Errorf("Parse(%q) = %v, want a domain error", in, err)
		}
	}
	plan := `{"tasks":[{"c":1,"t":10}],"processors":[[{"task":0,"part":1,"c":1,"t":17592186044417,"deadline":17592186044417,"tail":true}]]}`
	if _, _, err := ParsePlan([]byte(plan)); !errors.Is(err, task.ErrDomain) {
		t.Errorf("ParsePlan with a fragment past MaxTime = %v, want a domain error", err)
	}
}

package partition

import (
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/task"
)

func TestLookup(t *testing.T) {
	seen := map[string]string{}
	for _, name := range Names() {
		alg, err := Lookup(name, nil, nil)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if name == "auto" {
			if alg != nil {
				t.Errorf(`Lookup("auto") = %s, want nil (the planner chooses)`, alg.Name())
			}
			continue
		}
		if alg == nil {
			t.Fatalf("Lookup(%q) = nil", name)
		}
		if prev, dup := seen[alg.Name()]; dup {
			t.Errorf("Lookup(%q) and Lookup(%q) both build %s", prev, name, alg.Name())
		}
		seen[alg.Name()] = name
	}
	_, err := Lookup("nope", nil, nil)
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestLookupRMTSUsesBestBound pins "rm-ts" to RM-TS under bounds.Best, the
// algorithm every command means by that name. The fixture (one harmonic
// chain at U_M = 0.90 on two processors, cmd/partition/testdata/harmonic3.txt)
// is placed by RM-TS under the best bound (HC-min, Λ = 1) but rejected under
// the L&L default of NewRMTS(nil), so a registry that falls back to the
// default fails here.
func TestLookupRMTSUsesBestBound(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 450, T: 576},
		{Name: "b", C: 145, T: 576},
		{Name: "c", C: 3978, T: 5184},
	}
	const m = 2
	alg, err := Lookup("rm-ts", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := alg.Partition(ts, m)
	want := (&RMTS{PUB: bounds.Best()}).Partition(ts, m)
	if !got.OK || !want.OK {
		t.Fatalf("RM-TS under bounds.Best rejected the fixture: %s / %s", got.Reason, want.Reason)
	}
	if got.Assignment.String() != want.Assignment.String() {
		t.Errorf("registry rm-ts placed\n%s\nwant\n%s", got.Assignment, want.Assignment)
	}
	if ll := NewRMTS(nil).Partition(ts, m); ll.OK && ll.Assignment.String() == want.Assignment.String() {
		t.Fatal("fixture no longer separates the L&L default from bounds.Best")
	}
	// An explicit bound is honoured: L&L reproduces the default's verdict.
	llAlg, _ := Lookup("rm-ts", bounds.LiuLayland{}, nil)
	if llAlg.Partition(ts, m).OK != NewRMTS(nil).Partition(ts, m).OK {
		t.Error(`Lookup("rm-ts", L&L) disagrees with NewRMTS(nil)`)
	}
}

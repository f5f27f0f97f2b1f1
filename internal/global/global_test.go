package global

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/task"
)

func TestUSThresholdAndBound(t *testing.T) {
	if got := USThreshold(2); got != 0.5 {
		t.Errorf("ζ(2) = %g, want 0.5", got)
	}
	if got := USThreshold(4); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("ζ(4) = %g, want 0.4", got)
	}
	// Limit → 1/3 (the "best known ≈38%" regime the paper cites is of the
	// same order).
	if got := USThreshold(1000); math.Abs(got-1.0/3) > 1e-3 {
		t.Errorf("ζ(∞) = %g", got)
	}
}

func TestDhallEffect(t *testing.T) {
	// Global RM misses on the Dhall witness although U_M is modest;
	// RM-US and the paper's partitioned RM-TS schedule it.
	for _, m := range []int{2, 4, 8} {
		ts := DhallExample(m, 10)
		um := ts.NormalizedUtilization(m)
		if um > 0.7 {
			t.Fatalf("m=%d: witness too heavy (U_M=%.3f)", m, um)
		}
		grm, err := Simulate(ts, m, Options{Policy: RM, StopOnMiss: true})
		if err != nil {
			t.Fatal(err)
		}
		if grm.Ok() {
			t.Errorf("m=%d: global RM scheduled the Dhall witness (U_M=%.3f)", m, um)
		}
		rmus, err := Simulate(ts, m, Options{Policy: RMUS, StopOnMiss: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rmus.Ok() {
			t.Errorf("m=%d: RM-US missed on the Dhall witness: %v", m, rmus.Misses)
		}
		res := partition.NewRMTS(nil).Partition(ts, m)
		if !res.OK {
			t.Errorf("m=%d: RM-TS failed on the Dhall witness: %s", m, res.Reason)
		}
	}
}

func TestDhallUtilizationShrinksWithM(t *testing.T) {
	// The hallmark of the Dhall effect: the witness's normalized
	// utilization tends to 1/m·(m/T + 1) — arbitrarily low for large m,
	// yet global RM still fails.
	u8 := DhallExample(8, 100).NormalizedUtilization(8)
	u2 := DhallExample(2, 100).NormalizedUtilization(2)
	if u8 >= u2 {
		t.Errorf("U_M did not shrink: m=2 → %.3f, m=8 → %.3f", u2, u8)
	}
	rep, err := Simulate(DhallExample(8, 100), 8, Options{Policy: RM, StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Error("global RM scheduled the m=8 witness")
	}
}

func TestGlobalRMSchedulesTrivialSets(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 1, T: 10},
		{Name: "b", C: 2, T: 20},
		{Name: "c", C: 3, T: 30},
	}
	rep, err := Simulate(ts, 2, Options{Policy: RM, StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("misses: %v", rep.Misses)
	}
	if rep.Completed == 0 || rep.Released == 0 {
		t.Error("nothing happened")
	}
}

func TestGlobalSingleProcessorMatchesRM(t *testing.T) {
	// On one processor, global RM is uniprocessor RM: a harmonic set at
	// 100% is schedulable.
	ts := task.Set{
		{Name: "a", C: 2, T: 4},
		{Name: "b", C: 2, T: 8},
		{Name: "c", C: 4, T: 16},
	}
	rep, err := Simulate(ts, 1, Options{Policy: RM, StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("misses: %v", rep.Misses)
	}
}

func TestUSBoundSetsAreSchedulable(t *testing.T) {
	// [4]'s theorem, checked empirically: random sets under the RM-US
	// bound never miss under the RM-US policy.
	r := rand.New(rand.NewSource(4))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		m := 2 + r.Intn(3)
		ts, err := gen.TaskSet(r, gen.Config{
			TargetU: USBound(m) * float64(m) * (0.5 + 0.5*r.Float64()),
			UMin:    0.05, UMax: 0.9,
			Periods: gen.ChoicePeriods{Values: []task.Time{20, 40, 50, 80, 100, 200}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !SchedulableByUSBound(ts, m) {
			continue
		}
		rep, err := Simulate(ts, m, Options{Policy: RMUS, StopOnMiss: true, HorizonCap: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("trial %d: set under the RM-US bound missed: %v (U_M=%.3f, m=%d)",
				trial, rep.Misses, ts.NormalizedUtilization(m), m)
		}
		checked++
	}
	if checked < 20 {
		t.Errorf("only %d sets checked; generator too restrictive", checked)
	}
}

func TestPrioritiesRMUSPutsHeavyFirst(t *testing.T) {
	ts := task.Set{
		{Name: "short", C: 1, T: 10},  // light, highest RM priority
		{Name: "heavy", C: 54, T: 60}, // U=0.9 > ζ
		{Name: "long", C: 1, T: 100},
	}
	ts.SortRM()
	perm := Priorities(ts, 2, RMUS)
	if ts[perm[0]].Name != "heavy" {
		t.Errorf("RM-US priority order %v does not lead with the heavy task", perm)
	}
	rm := Priorities(ts, 2, RM)
	for k, idx := range rm {
		if k != idx {
			t.Errorf("plain RM permuted priorities: %v", rm)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	ts := task.Set{{Name: "a", C: 1, T: 4}}
	if _, err := Simulate(ts, 0, Options{}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Simulate(task.Set{{C: 5, T: 4}}, 2, Options{}); err == nil {
		t.Error("C>T accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if RM.String() != "G-RM" || RMUS.String() != "RM-US" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy has empty name")
	}
}

func TestGlobalOverloadDetected(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 9, T: 10},
		{Name: "b", C: 9, T: 10},
		{Name: "c", C: 9, T: 10},
	}
	rep, err := Simulate(ts, 2, Options{Policy: RM, StopOnMiss: false, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Error("U=2.7 on 2 processors did not miss")
	}
}

func TestNoParallelSelfExecution(t *testing.T) {
	// A single job must never run on two processors at once: a C=T task on
	// many processors completes exactly at its deadline, never earlier.
	ts := task.Set{{Name: "solo", C: 50, T: 50}}
	rep, err := Simulate(ts, 4, Options{Policy: RM, StopOnMiss: true, Horizon: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("misses: %v", rep.Misses)
	}
	if rep.WorstResponse[0] != 50 {
		t.Errorf("response %d, want exactly 50 (sequential execution)", rep.WorstResponse[0])
	}
}

func TestDhallExampleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("periodLight=1 accepted")
		}
	}()
	DhallExample(2, 1)
}

func TestGlobalRejectsConstrainedDeadlines(t *testing.T) {
	ts := task.Set{{Name: "c", C: 1, T: 10, D: 5}}
	if _, err := Simulate(ts, 2, Options{}); err == nil {
		t.Error("constrained set accepted by the global simulator")
	}
}

func TestGlobalMigrationAccounting(t *testing.T) {
	// Two processors, three tasks of equal period: the lowest-priority one
	// is repeatedly preempted and resumed.
	ts := task.Set{
		{Name: "a", C: 3, T: 6},
		{Name: "b", C: 3, T: 6},
		{Name: "c", C: 4, T: 12},
	}
	rep, err := Simulate(ts, 2, Options{Policy: RM, Horizon: 120, StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("misses: %v", rep.Misses)
	}
	if rep.Preemptions == 0 {
		t.Error("no preemptions recorded for a contended set")
	}
	if rep.WorstResponse[2] == 0 {
		t.Error("no response recorded for the low-priority task")
	}
}

func TestGlobalHorizonCap(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 1, T: 1009},
		{Name: "b", C: 1, T: 1013},
	}
	rep, err := Simulate(ts, 2, Options{HorizonCap: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Horizon != 4000 {
		t.Errorf("horizon = %d, want capped 4000", rep.Horizon)
	}
}

// TestUSBoundExactAtTheBound: on m = 2, {C 1, T 2} and
// {C 5000000001, T 10000000000} have U_M − 1/2 = 5·10⁻¹¹, inside the float
// margin, so the bound must refuse them. A set exactly at the bound (on
// m = 4, U_M = 2/5) must still pass, as the quick golden table's RM-US
// column requires; moving the margin to the refusing side would refuse it.
func TestUSBoundExactAtTheBound(t *testing.T) {
	above := task.Set{{Name: "a", C: 1, T: 2}, {Name: "b", C: 5000000001, T: 10000000000}}
	if u := above.NormalizedUtilization(2); !(u > USBound(2)) {
		t.Fatalf("setup: U_M = %.17g is not above the bound %.17g", u, USBound(2))
	}
	if SchedulableByUSBound(above, 2) {
		t.Error("a set above the RM-US bound is accepted")
	}
	at := task.Set{{C: 1, T: 3}, {C: 1, T: 3}, {C: 14, T: 15}}
	if !SchedulableByUSBound(at, 4) {
		t.Errorf("a set exactly at the RM-US bound (float U_M %.17g, bound %.17g) is refused",
			at.NormalizedUtilization(4), USBound(4))
	}
}

package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/task"
)

func harmonicLightSet() task.Set {
	return task.Set{
		{Name: "a1", C: 1, T: 4}, {Name: "a2", C: 1, T: 4},
		{Name: "b1", C: 2, T: 8}, {Name: "b2", C: 2, T: 8},
		{Name: "c1", C: 4, T: 16}, {Name: "c2", C: 4, T: 16},
	}
}

func TestAnalyzeHarmonicLight(t *testing.T) {
	ts := harmonicLightSet()
	a := Analyze(ts, 2)
	if !a.Harmonic || !a.Light {
		t.Fatalf("analysis wrong: %+v", a)
	}
	if a.HarmonicChains != 1 {
		t.Errorf("chains = %d, want 1", a.HarmonicChains)
	}
	if a.BestBoundValue != 1.0 {
		t.Errorf("best bound = %g, want 1.0 (harmonic)", a.BestBoundValue)
	}
	if a.GuaranteeLight != 1.0 {
		t.Errorf("light guarantee = %g, want 1.0", a.GuaranteeLight)
	}
	if a.GuaranteeAny >= 1.0 {
		t.Errorf("general guarantee %g should be capped below 1", a.GuaranteeAny)
	}
	if a.N != 6 || a.M != 2 {
		t.Errorf("N/M = %d/%d", a.N, a.M)
	}
	if a.NormalizedU != 0.75 {
		t.Errorf("U_M = %g, want 0.75", a.NormalizedU)
	}
}

func TestPartitionPicksLightAlgorithm(t *testing.T) {
	plan, err := Partition(harmonicLightSet(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AlgorithmName != "RM-TS/light" {
		t.Errorf("algorithm = %s, want RM-TS/light", plan.AlgorithmName)
	}
	if !plan.BoundBacked {
		t.Error("U_M=0.75 under the 100% harmonic bound should be bound-backed")
	}
	rep, err := plan.Simulate(sim.Options{StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("plan missed deadlines: %v", rep.Misses)
	}
}

func TestPartitionPicksGeneralAlgorithmForHeavySets(t *testing.T) {
	ts := task.Set{
		{Name: "h", C: 60, T: 100},
		{Name: "l1", C: 20, T: 200},
		{Name: "l2", C: 30, T: 300},
	}
	plan, err := Partition(ts, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AlgorithmName != "RM-TS" {
		t.Errorf("algorithm = %s, want RM-TS", plan.AlgorithmName)
	}
}

func TestPartitionForcedAlgorithm(t *testing.T) {
	// U_M must stay under Θ(6) ≈ 0.735 for SPA2 to pack (its threshold
	// admission cannot exceed the L&L bound — the paper's critique).
	ts := task.Set{
		{Name: "a1", C: 1, T: 4}, {Name: "a2", C: 1, T: 4},
		{Name: "b1", C: 2, T: 8}, {Name: "b2", C: 2, T: 8},
		{Name: "c1", C: 3, T: 16}, {Name: "c2", C: 3, T: 16},
	}
	plan, err := Partition(ts, 2, Options{Algorithm: partition.SPA2{}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AlgorithmName != "SPA2" {
		t.Errorf("algorithm = %s", plan.AlgorithmName)
	}
}

func TestPartitionInfeasibleReturnsError(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 9, T: 10},
		{Name: "b", C: 9, T: 10},
		{Name: "c", C: 9, T: 10},
	}
	_, err := Partition(ts, 2, Options{})
	if err == nil {
		t.Fatal("U=2.7 on M=2 produced a plan")
	}
	if !strings.Contains(err.Error(), "could not place") {
		t.Errorf("error lacks diagnostics: %v", err)
	}
}

func TestBoundTest(t *testing.T) {
	ok, bound, a := BoundTest(harmonicLightSet(), 2)
	if !ok {
		t.Errorf("harmonic light set at U_M=%.2f rejected by bound %g", a.NormalizedU, bound)
	}
	if bound != 1.0 {
		t.Errorf("bound = %g, want 1.0", bound)
	}
	// Push utilization above 1: must be rejected by bound test.
	over := task.Set{
		{Name: "x", C: 4, T: 4}, {Name: "y", C: 4, T: 4}, {Name: "z", C: 4, T: 4},
	}
	ok, _, _ = BoundTest(over, 2)
	if ok {
		t.Error("overloaded set passed bound test")
	}
}

func TestBoundTestAgreesWithPartitionOnAcceptance(t *testing.T) {
	// Soundness: whenever the bound test accepts, the planner must produce
	// a verified plan (the bound is sufficient). The converse need not
	// hold. Quantization margin as in the partition tests.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := 2 + r.Intn(3)
		ts, err := gen.TaskSet(r, gen.Config{TargetU: float64(m) * (0.4 + 0.3*r.Float64()), UMin: 0.05, UMax: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		ok, bound, a := BoundTest(ts, m)
		if !ok || a.NormalizedU > bound-0.02 {
			continue
		}
		if _, err := Partition(ts, m, Options{}); err != nil {
			t.Fatalf("trial %d: bound test accepted (U_M=%.4f ≤ %.4f) but planner failed: %v",
				trial, a.NormalizedU, bound, err)
		}
	}
}

func TestDefaultBoundsAllDeflatable(t *testing.T) {
	for _, b := range bounds.Portfolio() {
		if !b.Deflatable() {
			t.Errorf("%s in the default portfolio is not deflatable", b.Name())
		}
	}
}

func TestPlanExposesAssignment(t *testing.T) {
	plan, err := Partition(harmonicLightSet(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Assignment() == nil || plan.Assignment().M() != 2 {
		t.Error("assignment not exposed")
	}
	if err := plan.Assignment().Validate(); err != nil {
		t.Error(err)
	}
}

func TestPartitionWithExplicitPUB(t *testing.T) {
	ts := task.Set{
		{Name: "h", C: 60, T: 100},
		{Name: "l1", C: 20, T: 200},
		{Name: "l2", C: 30, T: 300},
	}
	plan, err := Partition(ts, 2, Options{PUB: bounds.LiuLayland{}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AlgorithmName != "RM-TS" {
		t.Errorf("algorithm = %s", plan.AlgorithmName)
	}
}

func TestPartitionEDFAlgorithmVerifiesAndSimulates(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 6, T: 10},
		{Name: "b", C: 6, T: 10},
		{Name: "c", C: 6, T: 10},
	}
	plan, err := Partition(ts, 2, Options{Algorithm: partition.EDFTS{}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Result.Scheduler != "EDF" {
		t.Errorf("scheduler = %q", plan.Result.Scheduler)
	}
	rep, err := plan.Simulate(sim.Options{StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("EDF plan missed: %v", rep.Misses)
	}
}

func TestAnalyzeConstrainedDisablesBounds(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 1, T: 10, D: 5},
		{Name: "b", C: 2, T: 20},
	}
	a := Analyze(ts, 2)
	if a.Implicit {
		t.Error("constrained set reported implicit")
	}
	if a.GuaranteeAny != 0 || a.GuaranteeLight != 0 {
		t.Errorf("bounds not disabled: %g/%g", a.GuaranteeAny, a.GuaranteeLight)
	}
	ok, bound, _ := BoundTest(ts, 2)
	if ok || bound != 0 {
		t.Errorf("bound test accepted a constrained set: ok=%v bound=%g", ok, bound)
	}
	// The planner must still produce a verified plan via RTA.
	if _, err := Partition(ts, 1, Options{}); err != nil {
		t.Fatalf("planner failed on a trivial constrained set: %v", err)
	}
}

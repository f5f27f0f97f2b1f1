package partition

import (
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestSplittingBeatsStrictPartitioning(t *testing.T) {
	// Three tasks of U=0.6 on two processors: impossible without splitting,
	// trivial with it — the motivating example for task splitting (§I).
	ts := task.Set{
		{Name: "a", C: 3, T: 5},
		{Name: "b", C: 3, T: 5},
		{Name: "c", C: 3, T: 5},
	}
	if res := (FirstFitRTA{}).Partition(ts, 2); res.OK {
		t.Fatal("strict partitioning fit 3×0.6 on 2 processors")
	}
	res := (RMTSLight{}).Partition(ts, 2)
	if !res.OK {
		t.Fatalf("RM-TS/light failed: %s", res.Reason)
	}
	if err := Verify(res); err != nil {
		t.Fatal(err)
	}
	if res.NumSplit != 1 {
		t.Errorf("NumSplit = %d, want 1", res.NumSplit)
	}
	rep, err := sim.Simulate(res.Assignment, sim.Options{StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("simulation missed: %v\n%s", rep.Misses, res.Assignment)
	}
}

func TestRMTSLightHarmonic100Percent(t *testing.T) {
	// Theorem 8 instantiated with the 100% harmonic bound: a light harmonic
	// set with U_M = 1.0 must be schedulable by RM-TS/light.
	ts := task.Set{
		{Name: "a1", C: 1, T: 4}, {Name: "a2", C: 1, T: 4},
		{Name: "b1", C: 2, T: 8}, {Name: "b2", C: 2, T: 8},
		{Name: "c1", C: 4, T: 16}, {Name: "c2", C: 4, T: 16},
		{Name: "c3", C: 4, T: 16}, {Name: "c4", C: 4, T: 16},
	}
	if !ts.IsHarmonic() {
		t.Fatal("test set not harmonic")
	}
	lightThr := bounds.LightThresholdFor(len(ts))
	if !ts.IsLight(lightThr) {
		t.Fatalf("test set not light (thr %.3f)", lightThr)
	}
	if u := ts.NormalizedUtilization(2); u != 1.0 {
		t.Fatalf("U_M = %g, want 1.0", u)
	}
	res := (RMTSLight{}).Partition(ts, 2)
	if !res.OK {
		t.Fatalf("RM-TS/light rejected a light harmonic set at U_M=1.0: %s\n%s", res.Reason, res.Assignment)
	}
	if err := Verify(res); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Simulate(res.Assignment, sim.Options{StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("simulation missed: %v", rep.Misses)
	}
}

func TestTheorem8RandomLightHarmonicSets(t *testing.T) {
	// Property form of Theorem 8 with Λ = 100% (harmonic): random light
	// single-chain sets with U_M(τ) ≤ 1 must always partition.
	//
	// Quantization note: the theorem is proved on the continuous time
	// model, where a bottleneck means "+ε breaks the processor". On the
	// integer tick domain the smallest increment is one tick, so a full
	// processor is only guaranteed to carry Λ − 1/T_min of utilization.
	// The assertion therefore allows a 2/T_min margin (T_min = 64 in this
	// generator).
	r := rand.New(rand.NewSource(20120501))
	for trial := 0; trial < 60; trial++ {
		m := 2 + r.Intn(3)
		ts, err := gen.HarmonicSet(r, gen.HarmonicConfig{
			TargetU: float64(m) * (0.90 + 0.10*r.Float64()),
			UMin:    0.05, UMax: 0.35,
			Chains: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ts.IsLight(bounds.LightThresholdFor(len(ts))) || !ts.IsHarmonic() {
			continue
		}
		if ts.NormalizedUtilization(m) > 1-2.0/64 {
			continue
		}
		res := (RMTSLight{}).Partition(ts, m)
		if !res.OK {
			t.Fatalf("trial %d: Theorem 8 violated: light harmonic U_M=%.4f on M=%d rejected: %s\nset=%v",
				trial, ts.NormalizedUtilization(m), m, res.Reason, ts)
		}
		if err := Verify(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRMTSBoundKChains(t *testing.T) {
	// §V instantiation: K=2 harmonic chains → bound min(82.8%, 2Θ/(1+Θ)).
	// Random two-chain sets under that bound must partition under RM-TS.
	// U_M is drawn from [0.76, 0.84]·M, around Λ ≈ 0.81–0.83. Sets above the
	// bound are skipped; at least half the trials must stay under it, and at
	// least an eighth of all trials within 0.02 of it (seed 777: 763 and
	// 253 of 1,000), where the theorem is tightest.
	r := rand.New(rand.NewSource(777))
	alg := NewRMTS(bounds.HarmonicChain{Minimal: true})
	const trials = 1000
	under, near := 0, 0
	for trial := 0; trial < trials; trial++ {
		m := 2 + r.Intn(3)
		ts, err := gen.HarmonicSet(r, gen.HarmonicConfig{
			TargetU: float64(m) * (0.76 + 0.08*r.Float64()),
			UMin:    0.05, UMax: 0.45,
			Chains: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		lambda := alg.Lambda(ts)
		um := ts.NormalizedUtilization(m)
		if um > lambda || ts.MaxUtilization() > lambda {
			continue
		}
		under++
		if lambda-um <= 0.02 {
			near++
		}
		res := alg.Partition(ts, m)
		if !res.OK {
			t.Fatalf("trial %d: RM-TS bound violated: U_M=%.4f ≤ Λ=%.4f on M=%d rejected: %s",
				trial, um, lambda, m, res.Reason)
		}
		if err := Verify(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	t.Logf("%d of %d trials under Λ, %d of them within 0.02", under, trials, near)
	if under < trials/2 || near < trials/8 {
		t.Errorf("%d trials under Λ (want ≥ %d), %d within 0.02 of it (want ≥ %d)", under, trials/2, near, trials/8)
	}
}

func TestRMTSHandlesHeavyTasks(t *testing.T) {
	// A mix with genuinely heavy tasks (U > Θ/(1+Θ)) that RM-TS must place.
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		m := 4
		ts, err := gen.MixedSet(r, gen.MixedConfig{
			TargetU:    float64(m) * 0.60,
			HeavyShare: 0.5,
			HeavyMin:   0.5, HeavyMax: 0.65,
			LightMin: 0.05, LightMax: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := NewRMTS(nil).Partition(ts, m)
		if !res.OK {
			t.Fatalf("trial %d: RM-TS rejected U_M=%.3f with heavy tasks: %s",
				trial, ts.NormalizedUtilization(m), res.Reason)
		}
		if err := Verify(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRMTSPreAssignsQualifyingHeavyTask(t *testing.T) {
	// One heavy high-priority task, few low-priority tasks: condition (8)
	// holds, so it must be pre-assigned.
	ts := task.Set{
		{Name: "heavy", C: 60, T: 100}, // U=0.6, highest priority
		{Name: "l1", C: 30, T: 200},    // U=0.15
		{Name: "l2", C: 45, T: 300},    // U=0.15
	}
	res := NewRMTS(nil).Partition(ts, 2)
	if !res.OK {
		t.Fatalf("failed: %s", res.Reason)
	}
	if res.NumPreAssigned != 1 {
		t.Errorf("NumPreAssigned = %d, want 1", res.NumPreAssigned)
	}
	if res.Assignment.PreAssigned[0] != 0 {
		t.Errorf("pre-assigned processor 0 hosts task %d, want 0", res.Assignment.PreAssigned[0])
	}
	if err := Verify(res); err != nil {
		t.Fatal(err)
	}
}

func TestRMTSPhase3GeneralPriorityInsert(t *testing.T) {
	// Force phase 3 to put a LOWER-priority task onto a processor whose
	// pre-assigned task has HIGHER priority: heavy task with short period,
	// leftovers with long periods, M=1... use M=2 with one normal
	// processor saturated.
	ts := task.Set{
		{Name: "heavy", C: 50, T: 100}, // heavy, highest priority
		{Name: "n1", C: 140, T: 200},   // U=0.7
		{Name: "n2", C: 90, T: 300},    // U=0.3
		{Name: "n3", C: 120, T: 400},   // U=0.3
	}
	res := NewRMTS(nil).Partition(ts, 2)
	if res.OK {
		if err := Verify(res); err != nil {
			t.Fatalf("phase-3 result fails verification: %v\n%s", err, res.Assignment)
		}
		rep, err := sim.Simulate(res.Assignment, sim.Options{StopOnMiss: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("simulation missed: %v\n%s", rep.Misses, res.Assignment)
		}
	}
	// Whether it fits or not, the run must be internally consistent; a
	// failure must name the culprit task.
	if !res.OK && res.FailedTask < 0 {
		t.Error("failure without a culprit task")
	}
}

func TestSPA2AcceptsUpToLLBoundOnly(t *testing.T) {
	// SPA2's Guaranteed flag caps at Θ(N) even when packing succeeds — the
	// paper's critique of [16].
	r := rand.New(rand.NewSource(8))
	anyAboveGuaranteed := false
	for trial := 0; trial < 40; trial++ {
		m := 4
		target := 0.75 + 0.2*r.Float64() // straddles Θ ≈ 0.70
		ts, err := gen.TaskSet(r, gen.Config{TargetU: float64(m) * target, UMin: 0.05, UMax: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		theta := bounds.LL(len(ts))
		res := (SPA2{}).Partition(ts, m)
		um := ts.NormalizedUtilization(m)
		if res.Guaranteed && um > theta+1e-6 {
			t.Fatalf("trial %d: SPA2 guaranteed above Θ: U_M=%.4f Θ=%.4f", trial, um, theta)
		}
		if res.OK && um > theta {
			anyAboveGuaranteed = true // packs fine, but no guarantee
		}
		if um <= theta && !res.OK {
			t.Fatalf("trial %d: SPA2 failed below its bound: U_M=%.4f Θ=%.4f: %s", trial, um, theta, res.Reason)
		}
	}
	_ = anyAboveGuaranteed
}

func TestSPA1LightGuarantee(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		m := 4
		ts, err := gen.TaskSet(r, gen.Config{TargetU: float64(m) * 0.65, UMin: 0.05, UMax: 0.35})
		if err != nil {
			t.Fatal(err)
		}
		theta := bounds.LL(len(ts))
		if ts.NormalizedUtilization(m) > theta {
			continue
		}
		if !ts.IsLight(bounds.LightThresholdFor(len(ts))) {
			continue
		}
		res := (SPA1{}).Partition(ts, m)
		if !res.OK || !res.Guaranteed {
			t.Fatalf("trial %d: SPA1 rejected a light set under Θ: ok=%v g=%v %s",
				trial, res.OK, res.Guaranteed, res.Reason)
		}
	}
}

func TestRMTSBeatsSPA2OnAverage(t *testing.T) {
	// The paper's average-case claim: with exact RTA packing, RM-TS accepts
	// far more sets between Θ and 1 than SPA2 guarantees.
	r := rand.New(rand.NewSource(10))
	rmts := NewRMTS(nil)
	rmtsWins, spa2Wins := 0, 0
	for trial := 0; trial < 60; trial++ {
		m := 4
		ts, err := gen.TaskSet(r, gen.Config{TargetU: float64(m) * 0.80, UMin: 0.05, UMax: 0.45})
		if err != nil {
			t.Fatal(err)
		}
		a := rmts.Partition(ts, m)
		b := (SPA2{}).Partition(ts, m)
		if a.Guaranteed && !b.Guaranteed {
			rmtsWins++
		}
		if b.Guaranteed && !a.Guaranteed {
			spa2Wins++
		}
		if a.OK {
			if err := Verify(a); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
	if rmtsWins <= spa2Wins {
		t.Errorf("RM-TS wins %d, SPA2 wins %d — expected RM-TS to dominate at U_M=0.80", rmtsWins, spa2Wins)
	}
	if rmtsWins < 20 {
		t.Errorf("RM-TS only won %d/60 at U_M=0.80; expected a clear majority", rmtsWins)
	}
}

func TestPartitionedResultsSimulateClean(t *testing.T) {
	// End-to-end: every successful partition (all algorithms) simulates
	// without a miss over the capped hyperperiod. Small-period menu keeps
	// hyperperiods tiny.
	r := rand.New(rand.NewSource(12))
	pg := gen.ChoicePeriods{Values: []task.Time{20, 40, 50, 80, 100, 200, 400}}
	algos := []Algorithm{RMTSLight{}, NewRMTS(nil), SPA1{}, SPA2{}, FirstFitRTA{}, WorstFitRTA{}}
	simulated := 0
	for trial := 0; trial < 40; trial++ {
		m := 2 + r.Intn(3)
		ts, err := gen.TaskSet(r, gen.Config{
			TargetU: float64(m) * (0.5 + 0.4*r.Float64()),
			UMin:    0.05, UMax: 0.5,
			Periods: pg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algos {
			res := alg.Partition(ts, m)
			if !res.OK || !res.Guaranteed {
				continue
			}
			rep, err := sim.Simulate(res.Assignment, sim.Options{StopOnMiss: true, HorizonCap: 500_000})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.Name(), err)
			}
			if !rep.Ok() {
				t.Fatalf("trial %d: %s produced a deadline miss: %v\nset=%v\n%s",
					trial, alg.Name(), rep.Misses, ts, res.Assignment)
			}
			simulated++
		}
	}
	if simulated < 40 {
		t.Errorf("only %d successful partitions simulated; test too weak", simulated)
	}
}

func TestDeterminism(t *testing.T) {
	ts, err := gen.TaskSet(rand.New(rand.NewSource(5)), gen.Config{TargetU: 3.1, UMin: 0.1, UMax: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{RMTSLight{}, NewRMTS(nil), SPA1{}, SPA2{}, FirstFitRTA{}, WorstFitRTA{}} {
		a := alg.Partition(ts, 4)
		b := alg.Partition(ts, 4)
		if a.OK != b.OK || a.NumSplit != b.NumSplit || a.NumPreAssigned != b.NumPreAssigned {
			t.Errorf("%s not deterministic", alg.Name())
		}
		if a.OK && a.Assignment.String() != b.Assignment.String() {
			t.Errorf("%s produced different assignments on identical input", alg.Name())
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	ts := task.Set{{Name: "b", C: 5, T: 20}, {Name: "a", C: 2, T: 10}}
	orig := ts.Clone()
	_ = (RMTSLight{}).Partition(ts, 2)
	for i := range ts {
		if ts[i] != orig[i] {
			t.Fatalf("input mutated at %d: %v vs %v", i, ts[i], orig[i])
		}
	}
}

func TestPrepareErrors(t *testing.T) {
	algos := []Algorithm{RMTSLight{}, NewRMTS(nil), SPA1{}, SPA2{}, FirstFitRTA{}, WorstFitRTA{}}
	for _, alg := range algos {
		if res := alg.Partition(task.Set{{C: 1, T: 4}}, 0); res.OK {
			t.Errorf("%s accepted m=0", alg.Name())
		}
		if res := alg.Partition(task.Set{}, 2); res.OK {
			t.Errorf("%s accepted empty set", alg.Name())
		}
		if res := alg.Partition(task.Set{{C: 5, T: 4}}, 2); res.OK {
			t.Errorf("%s accepted C>T", alg.Name())
		}
	}
}

func TestOverloadFailsWithCulprit(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 9, T: 10},
		{Name: "b", C: 9, T: 10},
		{Name: "c", C: 9, T: 10},
	}
	for _, alg := range []Algorithm{RMTSLight{}, NewRMTS(nil), SPA1{}, SPA2{}} {
		res := alg.Partition(ts, 2) // U=2.7 > 2
		if res.OK {
			t.Errorf("%s accepted U=2.7 on M=2", alg.Name())
			continue
		}
		if res.FailedTask < 0 || res.Reason == "" {
			t.Errorf("%s failure lacks diagnostics: %+v", alg.Name(), res)
		}
	}
}

func TestVerifyRejectsFailuresAndNil(t *testing.T) {
	if err := Verify(nil); err == nil {
		t.Error("nil result verified")
	}
	if err := Verify(&Result{}); err == nil {
		t.Error("empty result verified")
	}
	res := (RMTSLight{}).Partition(task.Set{{C: 9, T: 10}, {C: 9, T: 10}, {C: 9, T: 10}}, 2)
	if err := Verify(res); err == nil {
		t.Error("failed partition verified")
	}
}

func TestVerifyCatchesTamperedDeadline(t *testing.T) {
	ts := task.Set{{Name: "a", C: 3, T: 5}, {Name: "b", C: 3, T: 5}, {Name: "c", C: 3, T: 5}}
	res := (RMTSLight{}).Partition(ts, 2)
	if !res.OK {
		t.Fatal(res.Reason)
	}
	// Inflate a split tail's deadline beyond its legitimate value.
	tampered := false
	for q := range res.Assignment.Procs {
		for i := range res.Assignment.Procs[q] {
			s := &res.Assignment.Procs[q][i]
			if s.Part > 1 {
				s.Deadline = s.T
				s.Offset = 0
				tampered = true
			}
		}
	}
	if !tampered {
		t.Skip("no split produced")
	}
	if err := Verify(res); err == nil {
		t.Error("tampered synthetic deadline passed verification")
	}
}

func TestWorstFitSpreadsLoad(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 2, T: 10},
		{Name: "b", C: 2, T: 10},
		{Name: "c", C: 2, T: 10},
		{Name: "d", C: 2, T: 10},
	}
	res := (WorstFitRTA{}).Partition(ts, 4)
	if !res.OK {
		t.Fatal(res.Reason)
	}
	for q := 0; q < 4; q++ {
		if len(res.Assignment.Procs[q]) != 1 {
			t.Fatalf("worst-fit did not spread: %s", res.Assignment)
		}
	}
	res = (FirstFitRTA{}).Partition(ts, 4)
	if !res.OK {
		t.Fatal(res.Reason)
	}
	if len(res.Assignment.Procs[0]) != 4 {
		t.Fatalf("first-fit did not pack P0: %s", res.Assignment)
	}
}

func TestFitOrderNames(t *testing.T) {
	if (FirstFitRTA{Order: IncreasingPriority}).Name() != "P-RM-FF(IP)" {
		t.Error("FF name wrong")
	}
	if (WorstFitRTA{}).Name() != "P-RM-WF(DU)" {
		t.Error("WF name wrong")
	}
	if FitOrder(99).String() == "" {
		t.Error("unknown order has empty name")
	}
}

func TestNamesStable(t *testing.T) {
	names := map[string]bool{}
	for _, alg := range []Algorithm{RMTSLight{}, NewRMTS(nil), SPA1{}, SPA2{}, FirstFitRTA{}, WorstFitRTA{}} {
		n := alg.Name()
		if n == "" || names[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		names[n] = true
	}
}

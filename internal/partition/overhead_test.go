package partition

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/task"
)

// TestSurchargedView pins the analysis view VerifyWithSurcharge loads: a
// ProcState with Surcharge s mirrors every C as C + s and leaves the
// assignment's list untouched.
func TestSurchargedView(t *testing.T) {
	list := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: 2, T: 10, Deadline: 10, Tail: true},
		{TaskIndex: 1, Part: 2, C: 3, T: 20, Deadline: 15, Offset: 5, Tail: true},
	}
	for _, s := range []task.Time{0, 4} {
		ps := rta.ProcState{Surcharge: s}
		ps.Load(list)
		if ps.OwnC(0) != 2+s || ps.OwnC(1) != 3+s {
			t.Errorf("surcharge %d: viewed Cs = %d, %d", s, ps.OwnC(0), ps.OwnC(1))
		}
	}
	if list[0].C != 2 || list[1].C != 3 {
		t.Error("surcharge mutated the original")
	}
}

func TestZeroSurchargeIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for trial := 0; trial < 20; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 3.2, UMin: 0.05, UMax: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		a := RMTSLight{}.Partition(ts, 4)
		b := RMTSLight{Surcharge: 0}.Partition(ts, 4)
		if a.OK != b.OK {
			t.Fatalf("trial %d: zero-surcharge differs", trial)
		}
		if a.OK && a.Assignment.String() != b.Assignment.String() {
			t.Fatalf("trial %d: assignments differ", trial)
		}
	}
}

func TestSurchargeReducesAcceptance(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	plain, charged := 0, 0
	menu := gen.ChoicePeriods{Values: []task.Time{200, 400, 500, 800, 1000}}
	for trial := 0; trial < 60; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.85, UMin: 0.05, UMax: 0.5, Periods: menu})
		if err != nil {
			t.Fatal(err)
		}
		if res := (&RMTS{}).Partition(ts, 4); res.OK {
			plain++
		}
		if res := (&RMTS{Surcharge: 9}).Partition(ts, 4); res.OK {
			charged++
		}
	}
	if charged >= plain {
		t.Errorf("surcharge 9 did not reduce acceptance: %d vs %d", charged, plain)
	}
	if charged == 0 {
		t.Error("surcharge 9 killed all acceptance; test workload mis-tuned")
	}
}

func TestOverheadAwarePartitionsSurviveCharges(t *testing.T) {
	// The soundness property behind the E13 experiment: partitions
	// admitted with a 3×cost per-fragment surcharge never miss when
	// executed with per-dispatch and per-migration charges of that cost.
	r := rand.New(rand.NewSource(52))
	menu := gen.ChoicePeriods{Values: []task.Time{200, 400, 500, 800, 1000, 2000}}
	for _, ov := range []task.Time{1, 3, 7} {
		aware := &RMTS{Surcharge: 3 * ov}
		survived := 0
		for trial := 0; trial < 25; trial++ {
			ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.75, UMin: 0.05, UMax: 0.5, Periods: menu})
			if err != nil {
				t.Fatal(err)
			}
			res := aware.Partition(ts, 4)
			if !res.OK {
				continue
			}
			if err := VerifyWithSurcharge(res, 3*ov); err != nil {
				t.Fatalf("ov=%d trial %d: %v", ov, trial, err)
			}
			rep, err := sim.Simulate(res.Assignment, sim.Options{
				StopOnMiss: true, HorizonCap: 200_000,
				DispatchOverhead: ov, MigrationOverhead: ov,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("ov=%d trial %d: overhead-aware partition missed: %v\n%s",
					ov, trial, rep.Misses, res.Assignment)
			}
			survived++
		}
		if survived < 5 {
			t.Errorf("ov=%d: only %d partitions produced; test too weak", ov, survived)
		}
	}
}

func TestOverheadAwareLightVariant(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	menu := gen.ChoicePeriods{Values: []task.Time{200, 400, 500, 800, 1000}}
	ov := task.Time(2)
	aware := RMTSLight{Surcharge: 3 * ov}
	count := 0
	for trial := 0; trial < 25; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.8, UMin: 0.05, UMax: 0.35, Periods: menu})
		if err != nil {
			t.Fatal(err)
		}
		res := aware.Partition(ts, 4)
		if !res.OK {
			continue
		}
		rep, err := sim.Simulate(res.Assignment, sim.Options{
			StopOnMiss: true, HorizonCap: 200_000,
			DispatchOverhead: ov, MigrationOverhead: ov,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("trial %d: missed: %v", trial, rep.Misses)
		}
		count++
	}
	if count < 10 {
		t.Errorf("only %d partitions; test too weak", count)
	}
}

func TestVerifyWithSurchargeCatchesTightPlans(t *testing.T) {
	// A plan packed at zero surcharge generally fails verification under a
	// large surcharge — the margins are simply not there.
	r := rand.New(rand.NewSource(54))
	caught := false
	for trial := 0; trial < 30 && !caught; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.9, UMin: 0.05, UMax: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		res := (&RMTS{}).Partition(ts, 4)
		if !res.OK {
			continue
		}
		if err := VerifyWithSurcharge(res, 0); err != nil {
			t.Fatalf("trial %d: zero-surcharge verify must equal Verify: %v", trial, err)
		}
		if err := VerifyWithSurcharge(res, 50); err != nil {
			caught = true
		}
	}
	if !caught {
		t.Error("no tightly-packed plan failed the surcharged verification")
	}
}

// TestSurchargeOutsideDomainRefused pins the surcharge edges of the model's
// domain: a negative surcharge is invalid input to both overhead-aware
// partitioners (it once panicked inside MaxSplit), a surcharge past every
// T − C is surcharge-infeasible without overflowing C + s, and
// VerifyWithSurcharge refuses both without running RTA on the view.
func TestSurchargeOutsideDomainRefused(t *testing.T) {
	ts := task.Set{{Name: "a", C: 3, T: 10}, {Name: "b", C: 4, T: 12}, {Name: "c", C: 5, T: 20}, {Name: "d", C: 9, T: 30}}
	for _, tc := range []struct {
		s    task.Time
		want Cause
	}{{-2, CauseInvalidInput}, {math.MaxInt64, CauseSurchargeInfeasible}} {
		for _, alg := range []Algorithm{&RMTS{Surcharge: tc.s}, RMTSLight{Surcharge: tc.s}} {
			if res := alg.Partition(ts, 2); res.OK || res.Cause != tc.want {
				t.Errorf("%s with surcharge %d: OK %v cause %v, want %v", alg.Name(), tc.s, res.OK, res.Cause, tc.want)
			}
		}
	}
	res := (&RMTS{}).Partition(ts, 2)
	if !res.OK {
		t.Fatalf("setup: %s", res.Reason)
	}
	for _, s := range []task.Time{-1, math.MaxInt64} {
		if err := VerifyWithSurcharge(res, s); err == nil {
			t.Errorf("VerifyWithSurcharge(%d) accepted", s)
		}
	}
}

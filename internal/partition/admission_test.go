package partition

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/gen"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestAdmissionHierarchy(t *testing.T) {
	// RTA accepts ⊇ Hyperbolic accepts ⊇ LL accepts, on random single
	// processors.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(5)
		// Residents sorted by period with RM-consistent indices (the
		// bound-based tests presuppose RM priority order, which the
		// partitioners guarantee by construction).
		periods := make([]task.Time, n+1)
		for i := range periods {
			periods[i] = task.Time(10 + r.Intn(200))
		}
		sortTimes(periods)
		newPos := r.Intn(n + 1)
		list := make([]task.Subtask, 0, n)
		for i, T := range periods {
			if i == newPos {
				continue
			}
			C := task.Time(1 + r.Intn(int(T)/2))
			list = append(list, task.Subtask{TaskIndex: i, Part: 1, C: C, T: T, Deadline: T, Tail: true})
		}
		T := periods[newPos]
		C := task.Time(1 + r.Intn(int(T)))
		prio := newPos
		ll := AdmitLL.admits(list, C, T, nil)
		hb := AdmitHyperbolic.admits(list, C, T, nil)
		rtaOK := rta.SchedulableWithExtraAt(list, prio, C, T, T)
		if ll && !hb {
			t.Fatalf("trial %d: LL accepted but hyperbolic rejected", trial)
		}
		if hb && !rtaOK {
			t.Fatalf("trial %d: hyperbolic accepted but RTA rejected (list=%v, C=%d, T=%d)", trial, list, C, T)
		}
	}
}

func sortTimes(v []task.Time) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

func TestAdmissionStrings(t *testing.T) {
	if AdmitRTA.String() != "RTA" || AdmitHyperbolic.String() != "HB" || AdmitLL.String() != "LL" {
		t.Error("admission names wrong")
	}
	if Admission(9).String() == "" {
		t.Error("unknown admission has empty name")
	}
	if (FirstFit{Admission: AdmitHyperbolic}).Name() != "P-RM-FF[HB](DU)" {
		t.Errorf("name = %s", FirstFit{Admission: AdmitHyperbolic}.Name())
	}
}

func TestFirstFitMatchesFirstFitRTA(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 3.0, UMin: 0.05, UMax: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		a := (FirstFit{Admission: AdmitRTA}).Partition(ts, 4)
		b := (FirstFitRTA{}).Partition(ts, 4)
		if a.OK != b.OK {
			t.Fatalf("trial %d: FirstFit[RTA] and FirstFitRTA disagree", trial)
		}
		if a.OK && a.Assignment.String() != b.Assignment.String() {
			t.Fatalf("trial %d: assignments differ", trial)
		}
	}
}

func TestWeakerAdmissionAcceptsFewer(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	counts := map[Admission]int{}
	for trial := 0; trial < 100; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.82, UMin: 0.05, UMax: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		for _, adm := range []Admission{AdmitRTA, AdmitHyperbolic, AdmitLL} {
			if res := (FirstFit{Admission: adm}).Partition(ts, 4); res.OK {
				counts[adm]++
			}
		}
	}
	if !(counts[AdmitRTA] >= counts[AdmitHyperbolic] && counts[AdmitHyperbolic] >= counts[AdmitLL]) {
		t.Errorf("acceptance not ordered RTA ≥ HB ≥ LL: %v", counts)
	}
	if counts[AdmitRTA] == counts[AdmitLL] {
		t.Errorf("no separation between RTA and LL at U_M=0.82: %v", counts)
	}
}

func TestBoundAdmissionPartitionsAreSchedulable(t *testing.T) {
	// Hyperbolic and LL admissions are sufficient tests: their partitions
	// must simulate cleanly too.
	r := rand.New(rand.NewSource(24))
	menu := gen.ChoicePeriods{Values: []task.Time{20, 40, 50, 80, 100, 200}}
	simulated := 0
	for trial := 0; trial < 30; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.65, UMin: 0.05, UMax: 0.5, Periods: menu})
		if err != nil {
			t.Fatal(err)
		}
		for _, adm := range []Admission{AdmitHyperbolic, AdmitLL} {
			res := (FirstFit{Admission: adm}).Partition(ts, 4)
			if !res.OK {
				continue
			}
			rep, err := sim.Simulate(res.Assignment, sim.Options{StopOnMiss: true, HorizonCap: 200_000})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("trial %d: %s partition missed: %v", trial, adm, rep.Misses)
			}
			simulated++
		}
	}
	if simulated < 20 {
		t.Errorf("only %d partitions simulated", simulated)
	}
}

func TestHanTyanAdmissionTier(t *testing.T) {
	// HT must accept at least what HB accepts, and at most what RTA
	// accepts, across random sets.
	r := rand.New(rand.NewSource(25))
	counts := map[Admission]int{}
	for trial := 0; trial < 120; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.83, UMin: 0.05, UMax: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		for _, adm := range []Admission{AdmitRTA, AdmitHanTyan, AdmitHyperbolic} {
			if res := (FirstFit{Admission: adm}).Partition(ts, 4); res.OK {
				counts[adm]++
			}
		}
	}
	if !(counts[AdmitRTA] >= counts[AdmitHanTyan] && counts[AdmitHanTyan] >= counts[AdmitHyperbolic]) {
		t.Errorf("HT tier out of order: %v", counts)
	}
	if counts[AdmitHanTyan] == counts[AdmitHyperbolic] {
		t.Errorf("no separation between HT and HB at U_M=0.83: %v", counts)
	}
}

func TestHanTyanAdmissionPartitionsSimulateClean(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	menu := gen.ChoicePeriods{Values: []task.Time{20, 40, 50, 80, 100, 200}}
	simulated := 0
	for trial := 0; trial < 25; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.8, UMin: 0.05, UMax: 0.5, Periods: menu})
		if err != nil {
			t.Fatal(err)
		}
		res := (FirstFit{Admission: AdmitHanTyan}).Partition(ts, 4)
		if !res.OK {
			continue
		}
		rep, err := sim.Simulate(res.Assignment, sim.Options{StopOnMiss: true, HorizonCap: 200_000})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("trial %d: Han-Tyan partition missed: %v", trial, rep.Misses)
		}
		simulated++
	}
	if simulated < 10 {
		t.Errorf("only %d partitions simulated", simulated)
	}
}

// TestHanTyanHugePeriodReturns is a regression test: the Han–Tyan folding
// once doubled its harmonic base with h*2 ≤ T, which overflows and loops
// forever once a period exceeds 2^62. Both entry points must return, and
// accept the lone nearly-idle task.
func TestHanTyanHugePeriodReturns(t *testing.T) {
	ts := task.Set{{C: 1, T: 1<<62 + 1}}
	done := make(chan [2]bool, 1)
	go func() {
		res := FirstFit{Admission: AdmitHanTyan}.Partition(ts, 1)
		done <- [2]bool{bounds.HanTyanSchedulable(ts), res.OK}
	}()
	select {
	case got := <-done:
		if !got[0] || !got[1] {
			t.Errorf("HanTyanSchedulable = %v, FirstFit[HT] OK = %v; want both true", got[0], got[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Han–Tyan test did not return for a period above 2^62")
	}
}

// llCorner is L&L's n = 2 worst case at large periods with one tick added
// to the last C: U exceeds Θ(2) by ≈ 7.1·10⁻¹¹, below the float margin,
// and exact RTA gives b a response one tick past its deadline.
var llCorner = task.Set{
	{Name: "a", C: 4142135624, T: 10000000000},
	{Name: "b", C: 5857864377, T: 14142135624},
}

func TestThresholdAdmissionsRefuseJustAboveTheBound(t *testing.T) {
	a := task.Whole(0, llCorner[0])
	list := []task.Subtask{a}
	b := llCorner[1]
	if rta.SchedulableWithExtraAt(list, 1, b.C, b.T, b.T) {
		t.Fatal("the reproducer no longer misses under exact RTA")
	}
	for _, adm := range []Admission{AdmitLL, AdmitHyperbolic} {
		if adm.admits(list, b.C, b.T, nil) {
			t.Errorf("%v admits b on [a] although exact RTA misses", adm)
		}
		if res := (FirstFit{Admission: adm}).Partition(llCorner, 1); res.OK {
			t.Errorf("P-RM-FF[%v] accepts the set on one processor:\n%s", adm, res.Assignment)
		}
	}
	on, err := NewOnline(1, OnlineThreshold, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.Admit(llCorner[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := on.Admit(llCorner[1]); err == nil {
		t.Error("the online threshold policy admits b next to a")
	}
}

// TestHanTyanAdmissionRefusesFloatCorner is the Han–Tyan float corner: on
// one processor {C 2^59, T 2^60} and {C 2^59+1, T 2^60} have U = 1 + 2^-60,
// which a float sum rounds to 1, and exact RTA misses the second task by
// one tick. The integer folding refuses it.
func TestHanTyanAdmissionRefusesFloatCorner(t *testing.T) {
	corner := task.Set{{Name: "a", C: 1 << 59, T: 1 << 60}, {Name: "b", C: 1<<59 + 1, T: 1 << 60}}
	list := []task.Subtask{task.Whole(0, corner[0])}
	b := corner[1]
	if rta.SchedulableWithExtraAt(list, 1, b.C, b.T, b.T) {
		t.Fatal("the reproducer no longer misses under exact RTA")
	}
	if AdmitHanTyan.admits(list, b.C, b.T, new(Arena)) {
		t.Error("HT admits b on [a] although exact RTA misses")
	}
	if res := (FirstFit{Admission: AdmitHanTyan}).Partition(corner, 1); res.OK || res.Guaranteed {
		t.Errorf("P-RM-FF[HT] accepts the set on one processor (Guaranteed %v):\n%s", res.Guaranteed, res.Assignment)
	}
}

package edfa

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestDBFBasics(t *testing.T) {
	src := []Demand{{C: 2, T: 10, D: 6}}
	cases := []struct{ t, want task.Time }{
		{0, 0}, {5, 0}, {6, 2}, {15, 2}, {16, 4}, {26, 6},
	}
	for _, c := range cases {
		if got := DBF(src, c.t); got != c.want {
			t.Errorf("dbf(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestBusyPeriod(t *testing.T) {
	src := []Demand{{C: 2, T: 4, D: 4}, {C: 1, T: 8, D: 8}}
	// L = 2+1 = 3 → 2·⌈3/4⌉+1 = 3 ✓ fixed point.
	if got := BusyPeriod(src, 1000); got != 3 {
		t.Errorf("busy period = %d, want 3", got)
	}
	// Full utilization: the recurrence w(L) = Σ⌈L/T⌉C first reaches a
	// fixed point at the hyperperiod (w(L) ≥ U·L with equality only at
	// common multiples of the periods).
	full := []Demand{{C: 4, T: 4, D: 4}}
	if got := BusyPeriod(full, 1000); got != 4 {
		t.Errorf("full-utilization busy period = %d, want 4 (hyperperiod)", got)
	}
	over := []Demand{{C: 4, T: 4, D: 4}, {C: 1, T: 7, D: 7}}
	if got := BusyPeriod(over, 1000); got != 1000 {
		t.Errorf("overloaded busy period = %d, want saturation at the limit", got)
	}
}

func TestSchedulableImplicit(t *testing.T) {
	// Implicit deadlines: U ≤ 1 exactly.
	ok := Schedulable([]Demand{{C: 3, T: 6, D: 6}, {C: 5, T: 10, D: 10}})
	if !ok {
		t.Error("U=1.0 implicit set rejected")
	}
	if Schedulable([]Demand{{C: 3, T: 6, D: 6}, {C: 6, T: 10, D: 10}}) {
		t.Error("U=1.1 accepted")
	}
}

func TestSchedulableConstrainedExamples(t *testing.T) {
	// (2,10,4) and (3,10,5): dbf(4)=2, dbf(5)=5 ≤ 5 ✓ schedulable.
	if !Schedulable([]Demand{{C: 2, T: 10, D: 4}, {C: 3, T: 10, D: 5}}) {
		t.Error("feasible constrained pair rejected")
	}
	// (3,10,4) and (3,10,5): dbf(5) = 6 > 5 → unschedulable.
	if Schedulable([]Demand{{C: 3, T: 10, D: 4}, {C: 3, T: 10, D: 5}}) {
		t.Error("overloaded deadline window accepted")
	}
}

func TestSchedulableRejectsInvalid(t *testing.T) {
	bad := [][]Demand{
		{{C: 0, T: 5, D: 5}},
		{{C: 2, T: 5, D: 1}},
		{{C: 2, T: 5, D: 6}},
		{{C: 2, T: 0, D: 0}},
	}
	for i, src := range bad {
		if Schedulable(src) {
			t.Errorf("invalid source %d accepted", i)
		}
	}
	if !Schedulable(nil) {
		t.Error("empty set rejected")
	}
}

func TestSchedulableMatchesBruteForce(t *testing.T) {
	// QPA must agree with full dbf enumeration over the busy period.
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(5)
		src := make([]Demand, 0, n)
		for i := 0; i < n; i++ {
			T := task.Time(5 + r.Intn(40))
			C := task.Time(1 + r.Intn(int(T)/2))
			D := C + task.Time(r.Intn(int(T-C)+1))
			src = append(src, Demand{C: C, T: T, D: D})
		}
		if Utilization(src) > 0.999 {
			continue
		}
		want := bruteForce(src)
		got := Schedulable(src)
		if got != want {
			t.Fatalf("trial %d: QPA=%v brute=%v for %v", trial, got, want, src)
		}
	}
}

func bruteForce(src []Demand) bool {
	l := BusyPeriod(src, 1<<20)
	if l >= 1<<20 {
		return false
	}
	for _, s := range src {
		for t := s.D; t <= l; t += s.T {
			if DBF(src, t) > t {
				return false
			}
		}
	}
	return true
}

func TestSchedulableMatchesSimulation(t *testing.T) {
	// For periodic synchronous release, the demand criterion is exact:
	// edfa.Schedulable must agree with EDF simulation over the
	// hyperperiod (+ max deadline).
	r := rand.New(rand.NewSource(82))
	menu := []task.Time{4, 8, 12, 16, 24}
	agreeSched, agreeUnsched := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(4)
		ts := make(task.Set, 0, n)
		src := make([]Demand, 0, n)
		for i := 0; i < n; i++ {
			T := menu[r.Intn(len(menu))]
			C := task.Time(1 + r.Intn(int(T)/2))
			D := C + task.Time(r.Intn(int(T-C)+1))
			ts = append(ts, task.Task{Name: "e", C: C, T: T, D: D})
			src = append(src, Demand{C: C, T: T, D: D})
		}
		if Utilization(src) > 0.999 {
			continue
		}
		want := Schedulable(src)
		sorted := ts.Clone()
		sorted.SortDM()
		asg := task.NewAssignment(sorted, 1)
		for i, tk := range sorted {
			asg.Add(0, task.Whole(i, tk))
		}
		hyper := sorted.Hyperperiod()
		rep, err := sim.Simulate(asg, sim.Options{
			Policy:     sim.PolicyEDF,
			Horizon:    mathx.MulSat(hyper, 2),
			StopOnMiss: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Ok() != want {
			t.Fatalf("trial %d: analysis=%v simulation=%v for %v", trial, want, rep.Ok(), ts)
		}
		if want {
			agreeSched++
		} else {
			agreeUnsched++
		}
	}
	if agreeSched < 40 || agreeUnsched < 20 {
		t.Errorf("weak coverage: %d schedulable, %d unschedulable", agreeSched, agreeUnsched)
	}
}

func TestMaxAdditionalDemand(t *testing.T) {
	src := []Demand{{C: 2, T: 10, D: 4}}
	// New source (c, 10, 10): dbf points... c is capped by schedulability.
	got := MaxAdditionalDemand(src, 10, 10, 10)
	if got <= 0 || got > 8 {
		t.Fatalf("max demand = %d", got)
	}
	// The result must be maximal.
	if !Schedulable(append(append([]Demand(nil), src...), Demand{C: got, T: 10, D: 10})) {
		t.Error("returned budget infeasible")
	}
	if got < 10 && Schedulable(append(append([]Demand(nil), src...), Demand{C: got + 1, T: 10, D: 10})) {
		t.Error("budget not maximal")
	}
	if MaxAdditionalDemand(src, 10, 0, 5) != 0 {
		t.Error("zero window should yield zero budget")
	}
	// All implicit: Schedulable judges U ≤ 1 + 1e-9 in float alone, so a
	// full processor still takes 1,000 units every 10^12 (exact U > 1).
	full := []Demand{{C: 10, T: 10, D: 10}}
	if got := MaxAdditionalDemand(full, 1e12, 1e12, 1e12); got != 1000 {
		t.Errorf("implicit budget on a full processor = %d, want 1000 (the float utilization slack)", got)
	}
}

func TestMaxAdditionalDemandAgainstLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(3)
		src := make([]Demand, 0, n)
		for i := 0; i < n; i++ {
			T := task.Time(6 + r.Intn(30))
			C := task.Time(1 + r.Intn(int(T)/3))
			D := C + task.Time(r.Intn(int(T-C)+1))
			src = append(src, Demand{C: C, T: T, D: D})
		}
		T := task.Time(6 + r.Intn(30))
		D := task.Time(1 + r.Intn(int(T)))
		got := MaxAdditionalDemand(src, T, D, T)
		want := task.Time(0)
		for c := task.Time(1); c <= D; c++ {
			if Schedulable(append(append([]Demand(nil), src...), Demand{C: c, T: T, D: D})) {
				want = c
			} else {
				break
			}
		}
		if got != want {
			t.Fatalf("trial %d: binary %d vs linear %d (src=%v T=%d D=%d)", trial, got, want, src, T, D)
		}
	}
}

// TestOverOneMatchesBig checks the 128-bit exact utilization test against
// its arbitrary-precision form on sets whose exact sum lies within one unit
// of the last period's resolution of 1 — below, at and above it — with
// periods from a few ticks (the 128-bit path) to 2^62 (the overflow path).
func TestOverOneMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	paths, verdicts := map[bool]int{}, map[bool]int{}
	for trial := 0; trial < 3000; trial++ {
		bitsT := 3 + r.Intn(60)
		n := 1 + r.Intn(8)
		src := make([]Demand, n)
		sum := new(big.Rat)
		for i := range src {
			T := 1 + r.Int63n(int64(1)<<bitsT)
			C := 1 + r.Int63n(max(T/int64(2*n), 1))
			src[i] = Demand{C: C, T: T, D: T}
			if i < n-1 {
				sum.Add(sum, big.NewRat(C, T))
			}
		}
		// Choose the last C so the exact sum lands next to 1.
		last := &src[n-1]
		room := new(big.Rat).Sub(big.NewRat(1, 1), sum)
		room.Mul(room, big.NewRat(last.T, 1))
		c := new(big.Int).Quo(room.Num(), room.Denom()).Int64() + int64(r.Intn(3)) - 1
		if c < 1 || c > last.T {
			continue
		}
		last.C = c
		want := overOneBig(src)
		if got := overOne(src); got != want {
			t.Fatalf("trial %d: overOne = %v, exact %v for %v", trial, got, want, src)
		}
		paths[bitsT < 20]++
		verdicts[want]++
	}
	if paths[true] == 0 || paths[false] == 0 || verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("draws must cover both period ranges (%v) and both verdicts (%v)", paths, verdicts)
	}
}

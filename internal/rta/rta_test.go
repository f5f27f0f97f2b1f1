package rta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/task"
)

func subs(tuples ...[3]task.Time) []task.Subtask {
	// tuples are (C, T, Δ); TaskIndex follows position.
	out := make([]task.Subtask, len(tuples))
	for i, tu := range tuples {
		out[i] = task.Subtask{TaskIndex: i, Part: 1, C: tu[0], T: tu[1], Deadline: tu[2], Offset: tu[1] - tu[2], Tail: true}
	}
	return out
}

// loaded returns a from-scratch analysis state of list under surcharge s
// (ProcState.Load), the production path of every list-level analysis.
func loaded(list []task.Subtask, s task.Time) *ProcState {
	ps := &ProcState{Surcharge: s}
	ps.Load(list)
	return ps
}

// hpState loads an interference set, in order, as the residents of a
// from-scratch analysis state.
func hpState(hp []Interference) *ProcState {
	list := make([]task.Subtask, len(hp))
	for j, h := range hp {
		list[j] = task.Subtask{TaskIndex: j, Part: 1, C: h.C, T: h.T, Deadline: h.T, Tail: true}
	}
	return loaded(list, 0)
}

// responseOf runs one fixed point the way production does: a load with
// execution c probed against limit below the interferers hp (ProbeAt on a
// loaded state, cold-started).
func responseOf(c task.Time, hp []Interference, limit task.Time) (task.Time, Verdict) {
	p := hpState(hp).ProbeAt(len(hp), c, max(c, limit), limit)
	return p.OwnResponse, p.OwnVerdict
}

// subtaskResponse is position i's response on a freshly loaded list.
func subtaskResponse(list []task.Subtask, i int) (task.Time, bool) {
	return loaded(list, 0).ResponseAt(i, list[i].Deadline)
}

func TestResponseTimeClassicExample(t *testing.T) {
	// Classic textbook example: τ1=(1,4), τ2=(2,6), τ3=(3,13).
	// R1=1, R2=3, R3 = 3 + 2·1 + 1·2 ... fixed point: R3=10.
	list := subs([3]task.Time{1, 4, 4}, [3]task.Time{2, 6, 6}, [3]task.Time{3, 13, 13})
	wants := []task.Time{1, 3, 10}
	for i, want := range wants {
		r, ok := subtaskResponse(list, i)
		if !ok || r != want {
			t.Errorf("R%d = %d (ok=%v), want %d", i+1, r, ok, want)
		}
	}
}

func TestResponseTimeFullUtilizationHarmonic(t *testing.T) {
	// Harmonic set at exactly 100%: C=2/T=4, C=2/T=8, C=2/T=16 → U=0.875,
	// add C=2/T=16 → U=1.0; all must be schedulable under RM.
	list := subs(
		[3]task.Time{2, 4, 4},
		[3]task.Time{2, 8, 8},
		[3]task.Time{2, 16, 16},
		[3]task.Time{2, 16, 16},
	)
	if !ProcessorSchedulable(list) {
		t.Error("harmonic set at 100% rejected")
	}
}

func TestResponseTimeUnschedulable(t *testing.T) {
	// Two tasks of U=0.5 and one more tick anywhere breaks it.
	list := subs([3]task.Time{2, 4, 4}, [3]task.Time{3, 6, 6})
	if ProcessorSchedulable(list) {
		t.Error("overloaded set accepted")
	}
	r, ok := subtaskResponse(list, 1)
	if ok {
		t.Errorf("lowest-priority response %d reported schedulable", r)
	}
}

func TestSyntheticDeadlineRespected(t *testing.T) {
	// Same demand, but the second subtask has a shortened deadline.
	list := subs([3]task.Time{2, 4, 4}, [3]task.Time{2, 12, 12})
	if !ProcessorSchedulable(list) {
		t.Fatal("baseline should be schedulable")
	}
	list[1].Deadline = 4 // R2 = 2 + 2 = 4 exactly
	list[1].Offset = 8
	if !ProcessorSchedulable(list) {
		t.Error("deadline exactly at response time rejected")
	}
	list[1].Deadline = 3
	list[1].Offset = 9
	if ProcessorSchedulable(list) {
		t.Error("deadline below response time accepted")
	}
	// List order is priority order whatever the TaskIndex values: ranked
	// by index, (1, 4, Δ1) would fall below (2, 10) and miss.
	unsorted := []task.Subtask{
		{TaskIndex: 9, Part: 1, C: 1, T: 4, Deadline: 1, Offset: 3, Tail: true},
		{TaskIndex: 0, Part: 1, C: 2, T: 10, Deadline: 10, Tail: true},
	}
	if !ProcessorSchedulable(unsorted) || !refProcessorSchedulable(unsorted) {
		t.Error("list with descending TaskIndex not analysed in list order")
	}
	if r, ok := subtaskResponse(unsorted, 1); !ok || r != 3 {
		t.Errorf("second resident: R = %d (ok=%v), want 3 under the first", r, ok)
	}
}

func TestResponseTimeZeroInterference(t *testing.T) {
	r, v := responseOf(5, nil, 10)
	if v != VerdictFits || r != 5 {
		t.Errorf("R = %d, verdict %v", r, v)
	}
	if _, v = responseOf(11, nil, 10); v == VerdictFits {
		t.Error("C beyond limit accepted")
	}
}

func TestSchedulableWithExtraMatchesManualInsert(t *testing.T) {
	list := subs([3]task.Time{2, 10, 10}, [3]task.Time{3, 15, 15})
	// Insert a new top-priority load (2, 5) — priority index -1 ranks
	// above every resident: manual check.
	manual := subs([3]task.Time{2, 5, 5}, [3]task.Time{2, 10, 10}, [3]task.Time{3, 15, 15})
	if got, want := loaded(list, 0).AdmitAt(-1, 2, 5, 5), ProcessorSchedulable(manual); got != want {
		t.Errorf("AdmitAt = %v, manual = %v", got, want)
	}
	// An extra load that breaks the lowest-priority task.
	if loaded(list, 0).AdmitAt(-1, 4, 5, 5) {
		t.Error("overload accepted")
	}
}

func TestSchedulableWithExtraAtInsertsAtPriority(t *testing.T) {
	// Resident: τ0=(2,5), τ2=(2,20). Newcomer has priority 1.
	list := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: 2, T: 5, Deadline: 5, Tail: true},
		{TaskIndex: 2, Part: 1, C: 2, T: 20, Deadline: 20, Tail: true},
	}
	// (6, 12): R = 6 + 2·⌈R/5⌉ → R=10 ≤ 12; τ2: R = 2+2·⌈R/5⌉+6·⌈R/12⌉ →
	// iterate: 10 → 2+4+6=12 → 2+2·3+6=14 → 2+2·3+12=20 → 2+2·4+12=22 > 20.
	if loaded(list, 0).AdmitAt(1, 6, 12, 12) {
		t.Error("mid-priority insert that overloads τ2 accepted")
	}
	// (3, 12): new R = 3+2⌈R/5⌉ → 5... iterate: 5 → 3+2=5 ✓; τ2: R =
	// 2+2⌈R/5⌉+3⌈R/12⌉: 7 → 2+4+3=9 → 2+4+3=9 ✓ ≤ 20.
	if !loaded(list, 0).AdmitAt(1, 3, 12, 12) {
		t.Error("feasible mid-priority insert rejected")
	}
}

func TestSlackMatchesBinarySearchOnRandomSets(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(4)
		list := make([]task.Subtask, 0, n)
		for i := 0; i < n; i++ {
			T := task.Time(4 + r.Intn(60))
			C := task.Time(1 + r.Intn(int(T)/2))
			d := T - task.Time(r.Intn(int(T)/3+1))
			if d < C {
				d = C
			}
			list = append(list, task.Subtask{TaskIndex: i + 1, Part: 1, C: C, T: T, Deadline: d, Offset: T - d, Tail: true})
		}
		if !ProcessorSchedulable(list) {
			continue
		}
		t0 := task.Time(3 + r.Intn(40))
		for i := range list {
			want := binarySlack(list, i, t0)
			got := listSlack(list, i, t0)
			if got != want {
				t.Fatalf("trial %d: Slack(list, %d, t=%d) = %d, want %d; list=%v", trial, i, t0, got, want, list)
			}
		}
	}
}

// binarySlack is an independent reference: the largest e such that subtask
// i stays schedulable with an added top-priority interferer (e, t).
func binarySlack(list []task.Subtask, i int, t task.Time) task.Time {
	feasible := func(e task.Time) bool {
		hp := make([]Interference, 0, i+1)
		for j := 0; j < i; j++ {
			hp = append(hp, Interference{C: list[j].C, T: list[j].T})
		}
		if e > 0 {
			hp = append(hp, Interference{C: e, T: t})
		}
		_, v := refResponseTimeVerdict(list[i].C, hp, list[i].Deadline)
		return v == VerdictFits
	}
	if !feasible(0) {
		return 0
	}
	lo, hi := task.Time(0), list[i].Deadline+1
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func TestMaxOwnLoadMatchesBinarySearch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(4)
		hp := make([]Interference, n)
		for i := range hp {
			T := task.Time(3 + r.Intn(50))
			hp[i] = Interference{C: task.Time(1 + r.Intn(int(T)/2)), T: T}
		}
		d := task.Time(1 + r.Intn(120))
		got := hpState(hp).MaxOwnLoadAt(n, d)
		// Reference: binary search the largest c with a feasible response.
		feasible := func(c task.Time) bool {
			if c == 0 {
				return true
			}
			_, v := refResponseTimeVerdict(c, hp, d)
			return v == VerdictFits
		}
		lo, hi := task.Time(0), d+1
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if feasible(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		if got != lo {
			t.Fatalf("trial %d: MaxOwnLoadAt = %d, want %d (hp=%v, d=%d)", trial, got, lo, hp, d)
		}
	}
}

func TestResponseTimeMonotoneInC(t *testing.T) {
	hp := []Interference{{C: 2, T: 7}, {C: 3, T: 11}}
	f := func(a, b uint8) bool {
		c1, c2 := task.Time(a%50)+1, task.Time(b%50)+1
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		r1, v1 := responseOf(c1, hp, 100000)
		r2, v2 := responseOf(c2, hp, 100000)
		if v1 != VerdictFits || v2 != VerdictFits {
			return true
		}
		return r1 <= r2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponseTimeMonotoneInInterference(t *testing.T) {
	f := func(a, b, c uint8) bool {
		hp := []Interference{{C: task.Time(a%5) + 1, T: task.Time(b%20) + 6}}
		r1, v1 := responseOf(4, hp, 100000)
		r2, v2 := responseOf(4, append(hp, Interference{C: task.Time(c%5) + 1, T: 13}), 100000)
		if v1 != VerdictFits || v2 != VerdictFits {
			return true
		}
		return r1 <= r2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLiuLaylandBoundNeverRejected(t *testing.T) {
	// Any set under the L&L bound must pass RTA (RTA is exact, the bound is
	// sufficient). Random sets with ΣU ≤ Θ(n).
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(5)
		theta := float64(n) * (pow2inv(n) - 1)
		list := make([]task.Subtask, n)
		remaining := theta
		ok := true
		for i := 0; i < n; i++ {
			T := task.Time(10 + r.Intn(500))
			maxU := remaining / float64(n-i) * 1.5
			u := r.Float64() * maxU
			if u > remaining {
				u = remaining
			}
			C := task.Time(float64(T) * u)
			if C < 1 {
				C = 1
			}
			remaining -= float64(C) / float64(T)
			if remaining < 0 {
				ok = false
				break
			}
			list[i] = task.Subtask{TaskIndex: i, Part: 1, C: C, T: T, Deadline: T, Tail: true}
		}
		if !ok {
			continue
		}
		sortByPeriod(list)
		for i := range list {
			list[i].TaskIndex = i
		}
		if !ProcessorSchedulable(list) {
			t.Fatalf("trial %d: set under L&L bound rejected: %v", trial, list)
		}
	}
}

func pow2inv(n int) float64 {
	x := 1.0
	// 2^(1/n) via Newton on x^n = 2 — avoids importing math just for a test.
	for iter := 0; iter < 60; iter++ {
		xn := 1.0
		for i := 0; i < n; i++ {
			xn *= x
		}
		x = x - (xn-2)/(float64(n)*xn/x)
	}
	return x
}

func sortByPeriod(list []task.Subtask) {
	for i := 1; i < len(list); i++ {
		x := list[i]
		j := i - 1
		for j >= 0 && list[j].T > x.T {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = x
	}
}

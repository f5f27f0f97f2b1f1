package rta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/task"
)

// randomResidents draws a priority-sorted subtask list whose residents are
// individually plausible (C ≤ Deadline ≤ T); the list as a whole need not
// be schedulable.
func randomResidents(r *rand.Rand, n int) []task.Subtask {
	list := make([]task.Subtask, 0, n)
	for i := 0; i < n; i++ {
		T := task.Time(20 + r.Intn(2000))
		C := task.Time(1 + r.Intn(int(T)/4+1))
		d := T - task.Time(r.Intn(int(T)/4+1))
		if d < C {
			d = C
		}
		list = append(list, task.Subtask{TaskIndex: i * 2, Part: 1, C: C, T: T, Deadline: d, Tail: true})
	}
	return list
}

func mirror(list []task.Subtask, surcharge task.Time) *ProcState {
	ps := &ProcState{Surcharge: surcharge}
	for _, s := range list {
		ps.Insert(s)
	}
	return ps
}

// TestAdmitAtMatchesFromScratch fuzzes AdmitAt against the scalar
// SchedulableWithExtraAt on the equivalent (surcharged) list view — the
// decision-equivalence contract of the incremental engine. Each state is
// probed twice, so the second probe also runs over the first one's staging.
func TestAdmitAtMatchesFromScratch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(7)
		list := randomResidents(r, n)
		s := task.Time(r.Intn(3))
		ps := mirror(list, s)

		prio := r.Intn(2*n + 3) // may fall between, before or after residents
		T := task.Time(20 + r.Intn(2000))
		c := task.Time(1 + r.Intn(int(T)/3+1))
		d := T - task.Time(r.Intn(int(T)/3+1))

		sur := make([]task.Subtask, len(list))
		for i, sub := range list {
			sub.C += s
			sur[i] = sub
		}
		// The from-scratch reference only re-checks residents the insertion
		// can affect when they were schedulable beforehand; AdmitAt's skip
		// relies on that processor invariant, so establish it here.
		if !ProcessorSchedulable(sur) {
			continue
		}
		want := SchedulableWithExtraAt(sur, prio, c+s, T, d)

		for probe := 0; probe < 2; probe++ {
			if got := ps.AdmitAt(prio, c, T, d); got != want {
				t.Fatalf("trial %d probe %d: AdmitAt=%v, from-scratch=%v (list=%v s=%d prio=%d c=%d T=%d d=%d)",
					trial, probe, got, want, list, s, prio, c, T, d)
			}
		}
	}
}

// TestInsertAdoptsStagedResponses checks the probe-then-commit staging: a
// successful AdmitAt immediately followed by the matching Insert reuses the
// probe's converged fixed points, and later warm-started evaluations return
// the responses the scalar SubtaskResponse computes from scratch.
func TestInsertAdoptsStagedResponses(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		ps := &ProcState{}
		var list []task.Subtask
		n := 2 + r.Intn(5)
		for i := 0; i < n; i++ {
			T := task.Time(50 + r.Intn(1000))
			c := task.Time(1 + r.Intn(int(T)/n+1))
			sub := task.Subtask{TaskIndex: i, Part: 1, C: c, T: T, Deadline: T, Tail: true}
			if ps.AdmitAt(i, c, T, T) {
				ps.Insert(sub)
				list = append(list, sub)
			}
		}
		if ps.Len() != len(list) {
			t.Fatalf("mirror holds %d residents, model %d", ps.Len(), len(list))
		}
		for i := range list {
			rw, okw := ps.ResponseAt(i, ps.Deadline(i))
			rc, okc := SubtaskResponse(list, i)
			if rw != rc || okw != okc {
				t.Fatalf("trial %d pos %d: ResponseAt (%d,%v) vs SubtaskResponse (%d,%v)", trial, i, rw, okw, rc, okc)
			}
		}
	}
}

// TestWarmStartConvergesToSameFixedPoint pins the mathematical invariant
// directly: iterating from any lower bound of the least fixed point returns
// the least fixed point.
func TestWarmStartConvergesToSameFixedPoint(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		nhp := r.Intn(5)
		cs := make([]task.Time, nhp)
		ts := make([]task.Time, nhp)
		for i := range ts {
			ts[i] = task.Time(10 + r.Intn(500))
			cs[i] = task.Time(1 + r.Intn(int(ts[i])/3+1))
		}
		c := task.Time(1 + r.Intn(100))
		limit := task.Time(50 + r.Intn(5000))
		cold := coldStart(c, cs)
		rCold, vCold, _ := fixpointChecked(c, cs, ts, limit, cold)
		if vCold != VerdictFits {
			continue
		}
		// Any start in [coldStart, lfp] must converge to the same value,
		// on both kernels.
		for _, start := range []task.Time{rCold, rCold - 1, (cold + rCold) / 2} {
			if start < cold {
				start = cold
			}
			rWarm, vWarm, _ := fixpointChecked(c, cs, ts, limit, start)
			if rFast, vFast, _ := fixpointFast(c, cs, ts, limit, start); rFast != rWarm || vFast != vWarm {
				t.Fatalf("trial %d: fast kernel from %d gave (%d,%v), checked (%d,%v)", trial, start, rFast, vFast, rWarm, vWarm)
			}
			if rWarm != rCold || vWarm != VerdictFits {
				t.Fatalf("trial %d: warm from %d gave (%d,%v), cold gave %d", trial, start, rWarm, vWarm, rCold)
			}
		}
	}
}

func TestVerdictAborted(t *testing.T) {
	old := MaxIters
	MaxIters = 4
	defer func() { MaxIters = old }()
	// Slow convergence: interference climbs by one tick per iteration.
	cs, ts := []task.Time{1}, []task.Time{1}
	_, v := ResponseTimeVerdict(1, cs, ts, 1<<40)
	if v != VerdictAborted {
		t.Fatalf("verdict = %v, want aborted", v)
	}
	if v.String() != "aborted" {
		t.Fatalf("String() = %q", v.String())
	}
	// The abort is still treated as unschedulable by the list API.
	list := subs([3]task.Time{1, 1, 1}, [3]task.Time{1, 1 << 41, 1 << 40})
	if _, ok := SubtaskResponse(list, 1); ok {
		t.Fatal("aborted evaluation reported schedulable")
	}
}

func TestVerdictExceedsLimitIsExact(t *testing.T) {
	// C alone over the limit: exceeds-limit without any iteration.
	if _, v := ResponseTimeVerdict(10, nil, nil, 5); v != VerdictExceedsLimit {
		t.Fatalf("verdict = %v, want exceeds-limit", v)
	}
	// Interference pushes past the limit: still exact.
	cs, ts := []task.Time{5}, []task.Time{10}
	if _, v := ResponseTimeVerdict(6, cs, ts, 10); v != VerdictExceedsLimit {
		t.Fatalf("verdict = %v, want exceeds-limit", v)
	}
	if _, v := ResponseTimeVerdict(4, cs, ts, 10); v != VerdictFits {
		t.Fatalf("verdict = %v, want fits", v)
	}
}

// TestSlackAtMostUncappedMatchesSlack pins that SlackAtMost with a cap of
// math.MaxInt64 is the exact slack: the ProcState scan equals the reference
// testing-point slack on the equivalent list.
func TestSlackAtMostUncappedMatchesSlack(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + r.Intn(6)
		list := randomResidents(r, n)
		ps := mirror(list, 0)
		i := r.Intn(n)
		tt := task.Time(10 + r.Intn(2000))
		if got, want := ps.SlackAtMost(i, tt, math.MaxInt64), refSlack(list, i, tt); got != want {
			t.Fatalf("trial %d: SlackAtMost(uncapped)=%d Slack=%d (i=%d t=%d list=%v)", trial, got, want, i, tt, list)
		}
	}
}

func TestPosForMatchesAssignmentOrder(t *testing.T) {
	ps := &ProcState{}
	for _, idx := range []int{4, 8, 2} {
		ps.Insert(task.Subtask{TaskIndex: idx, Part: 1, C: 1, T: 100, Deadline: 100, Tail: true})
	}
	// Mirror order must be 2, 4, 8.
	for want, idx := range []int{2, 4, 8} {
		if ps.idx[want] != idx {
			t.Fatalf("mirror order %v", ps.idx)
		}
	}
	if ps.PosFor(3) != 1 || ps.PosFor(0) != 0 || ps.PosFor(9) != 3 {
		t.Fatalf("PosFor: %d %d %d", ps.PosFor(3), ps.PosFor(0), ps.PosFor(9))
	}
	// Equal index inserts after, matching task.Assignment.Add's sort.Search.
	if ps.PosFor(4) != 2 {
		t.Fatalf("PosFor(equal) = %d, want 2", ps.PosFor(4))
	}
}

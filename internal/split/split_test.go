package split

import (
	"math/rand"
	"testing"

	"repro/internal/rta"
	"repro/internal/task"
)

// randomProcessor builds a schedulable priority-sorted resident list with
// task indices starting at base.
func randomProcessor(r *rand.Rand, base int) []task.Subtask {
	for {
		n := 1 + r.Intn(4)
		list := make([]task.Subtask, 0, n)
		for i := 0; i < n; i++ {
			T := task.Time(5 + r.Intn(80))
			C := task.Time(1 + r.Intn(int(T)/2))
			d := T - task.Time(r.Intn(int(T)/4+1))
			if d < C {
				d = C
			}
			list = append(list, task.Subtask{TaskIndex: base + i, Part: 1, C: C, T: T, Deadline: d, Offset: T - d, Tail: true})
		}
		if rta.ProcessorSchedulable(list) {
			return list
		}
	}
}

// loaded returns a from-scratch analysis state of list.
func loaded(list []task.Subtask) *rta.ProcState {
	ps := &rta.ProcState{}
	ps.Load(list)
	return ps
}

// maxPortion is the paper's top insertion on a freshly loaded list:
// priority index 0 ranks above every resident of a randomProcessor(r, 1)
// list.
func maxPortion(list []task.Subtask, t, budget, d task.Time) task.Time {
	return MaxPortionState(loaded(list), 0, t, budget, d)
}

func TestMaxPortionAgainstBinary(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		list := randomProcessor(r, 1)
		T := task.Time(4 + r.Intn(60))
		budget := task.Time(1 + r.Intn(int(T)))
		d := T - task.Time(r.Intn(int(T)/2+1))
		got := maxPortion(list, T, budget, d)
		want := MaxPortionBinary(loaded(list), 0, T, budget, d)
		if got != want {
			t.Fatalf("trial %d: MaxPortionState = %d, MaxPortionBinary = %d (T=%d budget=%d d=%d list=%v)",
				trial, got, want, T, budget, d, list)
		}
	}
}

func TestMaxPortionAtAgainstBinary(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		list := randomProcessor(r, 0)
		// Re-index residents to leave gaps so the newcomer can take any
		// relative priority.
		for i := range list {
			list[i].TaskIndex = i * 2
		}
		// Even draws tie with a resident's index: the newcomer then goes
		// below that resident, in MaxPortionState, MaxPortionBinary and the
		// reference.
		prio := r.Intn(len(list)*2 + 2)
		T := task.Time(4 + r.Intn(60))
		budget := task.Time(1 + r.Intn(int(T)))
		d := T - task.Time(r.Intn(int(T)/2+1))
		want := maxPortionAtBinary(list, prio, T, budget, d)
		if got := MaxPortionState(loaded(list), prio, T, budget, d); got != want {
			t.Fatalf("trial %d: MaxPortionState = %d, binary = %d (prio=%d T=%d budget=%d d=%d list=%v)",
				trial, got, want, prio, T, budget, d, list)
		}
		if got := MaxPortionBinary(loaded(list), prio, T, budget, d); got != want {
			t.Fatalf("trial %d: MaxPortionBinary = %d, reference = %d (prio=%d T=%d budget=%d d=%d list=%v)",
				trial, got, want, prio, T, budget, d, list)
		}
	}
}

func TestMaxPortionIsMaximal(t *testing.T) {
	// The returned portion must be feasible, and portion+1 infeasible
	// (unless capped by budget or deadline) — this is the bottleneck
	// property of Definition 3 in integer time.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		list := randomProcessor(r, 1)
		T := task.Time(4 + r.Intn(60))
		budget := T // uncapped in practice
		d := T
		p := maxPortion(list, T, budget, d)
		if p > 0 && !withExtraAt(list, 0, p, T, d) {
			t.Fatalf("trial %d: portion %d reported feasible but RTA rejects it", trial, p)
		}
		if p < budget && p < d {
			if withExtraAt(list, 0, p+1, T, d) {
				t.Fatalf("trial %d: portion %d not maximal (p+1 feasible)", trial, p)
			}
		}
	}
}

func TestMaxPortionEdgeCases(t *testing.T) {
	list := []task.Subtask{{TaskIndex: 1, Part: 1, C: 2, T: 10, Deadline: 10, Tail: true}}
	if got := maxPortion(list, 5, 0, 5); got != 0 {
		t.Errorf("zero budget: %d", got)
	}
	if got := maxPortion(list, 5, 3, 0); got != 0 {
		t.Errorf("zero deadline: %d", got)
	}
	if got := maxPortion(list, 5, 3, -4); got != 0 {
		t.Errorf("negative deadline: %d", got)
	}
	if got := maxPortion(nil, 5, 3, 5); got != 3 {
		t.Errorf("empty processor should grant the whole budget: %d", got)
	}
	// Budget larger than deadline is capped by the deadline.
	if got := maxPortion(nil, 5, 10, 4); got != 4 {
		t.Errorf("deadline cap: %d", got)
	}
}

func TestMaxPortionSaturatedProcessor(t *testing.T) {
	// A processor at 100% with a harmonic resident has no room at all for
	// an interferer whose period does not divide.
	list := []task.Subtask{{TaskIndex: 1, Part: 1, C: 10, T: 10, Deadline: 10, Tail: true}}
	if got := maxPortion(list, 7, 7, 7); got != 0 {
		t.Errorf("fully loaded processor granted %d", got)
	}
}

func TestMaxPortionHarmonicExact(t *testing.T) {
	// Resident (2,8,Δ8); newcomer period 4. Demand at x=8: 2 + 2·p ≤ 8 →
	// p ≤ 3. At x=4: 2 + p ≤ 4 → p ≤ 2. Best is 3.
	list := []task.Subtask{{TaskIndex: 1, Part: 1, C: 2, T: 8, Deadline: 8, Tail: true}}
	if got := maxPortion(list, 4, 8, 4); got != 3 {
		t.Errorf("harmonic slack = %d, want 3", got)
	}
}

// withExtraAt reports whether list stays schedulable with a new load
// (c, t, deadline d) merged in at priority index prio, below every resident
// whose index is at most prio: the whole merged list through
// rta.ProcessorSchedulable, no slack or max-own-load kernel involved.
func withExtraAt(list []task.Subtask, prio int, c, t, d task.Time) bool {
	pos := 0
	for pos < len(list) && list[pos].TaskIndex <= prio {
		pos++
	}
	merged := append(append(append([]task.Subtask(nil), list[:pos]...),
		task.Subtask{TaskIndex: prio, Part: 1, C: c, T: t, Deadline: d, Offset: t - d, Tail: true}), list[pos:]...)
	return rta.ProcessorSchedulable(merged)
}

// maxPortionAtBinary is the binary-search reference for MaxPortionState: the
// largest feasible c' in [0, min(budget, d)], probing each candidate with
// the full admission check at priority index prio. Schedulability is
// monotone in c', so the search is exact.
func maxPortionAtBinary(list []task.Subtask, prio int, t, budget, d task.Time) task.Time {
	hi := budget
	if d < hi {
		hi = d
	}
	if hi <= 0 {
		return 0
	}
	feasible := func(c task.Time) bool {
		return c == 0 || withExtraAt(list, prio, c, t, d)
	}
	if feasible(hi) {
		return hi
	}
	lo := task.Time(0)
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

// hasBottleneck reports whether the priority-sorted resident list has a
// bottleneck in the sense of Definition 2: the processor is schedulable,
// but increasing the execution time of its highest-priority subtask by one
// tick (the smallest positive amount on the integer time domain) makes some
// subtask miss its synthetic deadline. An empty processor has no
// bottleneck.
func hasBottleneck(list []task.Subtask) bool {
	if len(list) == 0 || !rta.ProcessorSchedulable(list) {
		return false
	}
	bumped := append([]task.Subtask(nil), list...)
	bumped[0].C++
	if bumped[0].C > bumped[0].Deadline {
		return true // the highest-priority subtask itself is the bottleneck
	}
	return !rta.ProcessorSchedulable(bumped)
}

func TestHasBottleneck(t *testing.T) {
	// Saturated harmonic processor: bumping the top task by 1 breaks it.
	full := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: 2, T: 4, Deadline: 4, Tail: true},
		{TaskIndex: 1, Part: 1, C: 4, T: 8, Deadline: 8, Tail: true},
	}
	if !hasBottleneck(full) {
		t.Error("saturated processor has no bottleneck")
	}
	slack := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: 1, T: 10, Deadline: 10, Tail: true},
	}
	if hasBottleneck(slack) {
		t.Error("nearly idle processor has a bottleneck")
	}
	if hasBottleneck(nil) {
		t.Error("empty processor has a bottleneck")
	}
	over := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: 9, T: 10, Deadline: 10, Tail: true},
		{TaskIndex: 1, Part: 1, C: 9, T: 10, Deadline: 10, Tail: true},
	}
	if hasBottleneck(over) {
		t.Error("unschedulable processor reported a bottleneck")
	}
	// A top task already at C = Δ is its own bottleneck.
	atLimit := []task.Subtask{{TaskIndex: 0, Part: 1, C: 5, T: 10, Deadline: 5, Offset: 5, Tail: true}}
	if !hasBottleneck(atLimit) {
		t.Error("C=Δ top task not recognized as bottleneck")
	}
}

func TestMaxPortionThenBottleneck(t *testing.T) {
	// After assigning the maximal portion as the top-priority subtask, the
	// processor must have a bottleneck (Definition 3 condition 2).
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		list := randomProcessor(r, 1)
		T := task.Time(4 + r.Intn(60))
		d := T
		p := maxPortion(list, T, T, d)
		if p == 0 || p == T {
			continue // nothing assigned, or no split happened
		}
		with := append([]task.Subtask{{TaskIndex: 0, Part: 1, C: p, T: T, Deadline: d, Tail: false}}, list...)
		if !hasBottleneck(with) {
			t.Fatalf("trial %d: no bottleneck after maximal split (p=%d, T=%d, list=%v)", trial, p, T, list)
		}
	}
}

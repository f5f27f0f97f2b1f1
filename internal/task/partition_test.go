package task

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func twoTaskSet() Set {
	return Set{{Name: "hi", C: 2, T: 10}, {Name: "lo", C: 5, T: 20}}
}

func TestNewAssignment(t *testing.T) {
	a := NewAssignment(twoTaskSet(), 3)
	if a.M() != 3 {
		t.Fatalf("M = %d", a.M())
	}
	for q := 0; q < 3; q++ {
		if a.PreAssigned[q] != -1 {
			t.Errorf("processor %d pre-assigned %d, want -1", q, a.PreAssigned[q])
		}
		if a.Utilization(q) != 0 {
			t.Errorf("fresh processor %d has utilization %g", q, a.Utilization(q))
		}
	}
}

func TestAddKeepsPriorityOrder(t *testing.T) {
	a := NewAssignment(Set{{C: 1, T: 5}, {C: 1, T: 10}, {C: 1, T: 20}}, 1)
	a.Add(0, Whole(2, a.Set[2]))
	a.Add(0, Whole(0, a.Set[0]))
	a.Add(0, Whole(1, a.Set[1]))
	got := a.Procs[0]
	for i := 1; i < len(got); i++ {
		if got[i-1].TaskIndex >= got[i].TaskIndex {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestUtilizationSums(t *testing.T) {
	a := NewAssignment(twoTaskSet(), 2)
	a.Add(0, Whole(0, a.Set[0])) // 0.2
	a.Add(1, Whole(1, a.Set[1])) // 0.25
	if u := a.Utilization(0); u != 0.2 {
		t.Errorf("U(P0) = %g", u)
	}
	if u := a.TotalUtilization(); u != 0.45 {
		t.Errorf("total = %g", u)
	}
}

// requireFreshUtil fails unless every Utilization(q) equals a fresh
// in-order sum of Procs[q]'s Subtask.Utilization(), bit for bit, and every
// list is in priority order.
func requireFreshUtil(t *testing.T, a *Assignment, step string) {
	t.Helper()
	for q, list := range a.Procs {
		sum := 0.0
		for k, s := range list {
			if k > 0 && list[k-1].TaskIndex > s.TaskIndex {
				t.Fatalf("%s: processor %d out of priority order: %v", step, q, list)
			}
			sum += s.Utilization()
		}
		if got := a.Utilization(q); math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("%s: Utilization(%d) = %v, fresh sum %v", step, q, got, sum)
		}
	}
}

// TestUtilizationNeverStale drives one Assignment through random Add and
// Reset sequences (growing and shrinking m over recycled capacity) and
// requires every Utilization(q) to equal a fresh in-order sum of
// Procs[q], bit for bit, after every step.
func TestUtilizationNeverStale(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := &Assignment{}
	for round := 0; round < 200; round++ {
		m := 1 + r.Intn(6)
		n := 1 + r.Intn(12)
		set := make(Set, n)
		for i := range set {
			tt := Time(3 + r.Intn(1000))
			set[i] = Task{C: 1 + Time(r.Int63n(int64(tt))), T: tt}
		}
		a.Reset(set, m)
		requireFreshUtil(t, a, "Reset")
		for _, i := range r.Perm(n) {
			a.Add(r.Intn(m), Whole(i, set[i]))
			requireFreshUtil(t, a, "Add")
		}
	}
}

// FuzzAssignmentUtil drives Add at the head, middle and tail of several
// processors' lists, across Reset reuse, and requires the cached
// utilization to match a fresh in-order sum bit for bit after every step.
// Each 4-byte op either resets (first byte ≥ 250; m from the second) or
// adds a subtask: processor, task index (its list position), C and T.
func FuzzAssignmentUtil(f *testing.F) {
	f.Add([]byte{0, 5, 3, 7, 0, 9, 200, 3, 0, 1, 13, 40, 0, 7, 1, 255})
	f.Add([]byte{1, 200, 9, 1, 1, 100, 17, 99, 1, 0, 250, 30, 250, 3, 0, 0, 2, 50, 7, 7, 0, 50, 8, 8})
	f.Add([]byte{3, 40, 255, 1, 3, 30, 254, 2, 3, 20, 253, 3, 3, 10, 252, 4, 251, 1, 0, 0, 0, 10, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*64 {
			data = data[:4*64]
		}
		a := NewAssignment(nil, 4)
		for step := 0; len(data) >= 4; data = data[4:] {
			if data[0] >= 250 {
				a.Reset(nil, 1+int(data[1]%6))
				requireFreshUtil(t, a, "Reset")
				continue
			}
			c := 1 + Time(data[2])
			a.Add(int(data[0])%a.M(), Subtask{TaskIndex: int(data[1]), Part: 1,
				C: c, T: c + 1 + 13*Time(data[3]), Tail: true})
			step++
			requireFreshUtil(t, a, "Add "+strconv.Itoa(step))
		}
	})
}

func TestFragmentIndexAndSplitTasks(t *testing.T) {
	set := Set{{Name: "a", C: 6, T: 20}, {Name: "b", C: 2, T: 30}}
	a := NewAssignment(set, 2)
	// Split task 0 into body (4 ticks on P0) and tail (2 ticks on P1).
	a.Add(0, Subtask{TaskIndex: 0, Part: 1, C: 4, T: 20, Deadline: 20, Offset: 0, Tail: false})
	a.Add(1, Subtask{TaskIndex: 0, Part: 2, C: 2, T: 20, Deadline: 16, Offset: 4, Tail: true})
	a.Add(1, Whole(1, set[1]))

	var x FragmentIndex
	x.Build(a)
	frags := x.Of(0)
	if len(frags) != 2 || frags[0].Sub.Part != 1 || frags[1].Sub.Part != 2 {
		t.Fatalf("fragments wrong: %v", frags)
	}
	if frags[0].Proc != 0 || frags[1].Proc != 1 || frags[0].Pos != 0 || frags[1].Pos != 0 {
		t.Fatalf("locations wrong: %v", frags)
	}
	if other := x.Of(1); len(other) != 1 || other[0].Proc != 1 || other[0].Pos != 1 {
		t.Fatalf("task 1 fragments wrong: %v", other)
	}
	split := a.SplitTasks()
	if len(split) != 1 || split[0] != 0 {
		t.Fatalf("SplitTasks = %v", split)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
}

func TestValidateCatchesMissingTask(t *testing.T) {
	a := NewAssignment(twoTaskSet(), 1)
	a.Add(0, Whole(0, a.Set[0]))
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "not assigned") {
		t.Errorf("missing task not caught: %v", err)
	}
}

func TestValidateCatchesBadFragmentSum(t *testing.T) {
	set := Set{{Name: "a", C: 6, T: 20}}
	a := NewAssignment(set, 2)
	a.Add(0, Subtask{TaskIndex: 0, Part: 1, C: 3, T: 20, Deadline: 20, Offset: 0, Tail: false})
	a.Add(1, Subtask{TaskIndex: 0, Part: 2, C: 2, T: 20, Deadline: 17, Offset: 3, Tail: true})
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "sum") {
		t.Errorf("wrong C sum not caught: %v", err)
	}
}

func TestValidateCatchesSharedProcessor(t *testing.T) {
	set := Set{{Name: "a", C: 6, T: 20}}
	a := NewAssignment(set, 1)
	a.Add(0, Subtask{TaskIndex: 0, Part: 1, C: 4, T: 20, Deadline: 20, Offset: 0})
	a.Add(0, Subtask{TaskIndex: 0, Part: 2, C: 2, T: 20, Deadline: 16, Offset: 4, Tail: true})
	err := a.Validate()
	if err == nil {
		t.Error("fragments on one processor not caught")
	}
}

func TestValidateCatchesBadDeadlineBookkeeping(t *testing.T) {
	set := Set{{Name: "a", C: 6, T: 20}}
	a := NewAssignment(set, 2)
	a.Add(0, Subtask{TaskIndex: 0, Part: 1, C: 4, T: 20, Deadline: 20, Offset: 0, Tail: false})
	// Offset 3 < body's C (4): synthetic deadline too generous — unsafe.
	a.Add(1, Subtask{TaskIndex: 0, Part: 2, C: 2, T: 20, Deadline: 17, Offset: 3, Tail: true})
	if err := a.Validate(); err == nil {
		t.Error("too-generous synthetic deadline not caught")
	}
}

func TestValidateAllowsResponseBasedOffsets(t *testing.T) {
	// Offset may exceed the cumulative C when a body fragment's response
	// time exceeds its execution time (RM-TS phase 3).
	set := Set{{Name: "a", C: 6, T: 20}}
	a := NewAssignment(set, 2)
	a.Add(0, Subtask{TaskIndex: 0, Part: 1, C: 4, T: 20, Deadline: 20, Offset: 0, Tail: false})
	a.Add(1, Subtask{TaskIndex: 0, Part: 2, C: 2, T: 20, Deadline: 14, Offset: 6, Tail: true})
	if err := a.Validate(); err != nil {
		t.Errorf("response-based offset rejected: %v", err)
	}
}

func TestValidateCatchesNonzeroFirstOffset(t *testing.T) {
	set := Set{{Name: "a", C: 6, T: 20}}
	a := NewAssignment(set, 1)
	a.Add(0, Subtask{TaskIndex: 0, Part: 1, C: 6, T: 20, Deadline: 18, Offset: 2, Tail: true})
	if err := a.Validate(); err == nil {
		t.Error("non-zero first offset not caught")
	}
}

func TestValidateCatchesWrongTailFlag(t *testing.T) {
	set := Set{{Name: "a", C: 6, T: 20}}
	a := NewAssignment(set, 1)
	a.Add(0, Subtask{TaskIndex: 0, Part: 1, C: 6, T: 20, Deadline: 20, Offset: 0, Tail: false})
	if err := a.Validate(); err == nil {
		t.Error("missing tail flag not caught")
	}
}

func TestAssignmentString(t *testing.T) {
	a := NewAssignment(twoTaskSet(), 2)
	a.Add(0, Whole(0, a.Set[0]))
	a.PreAssigned[1] = 1
	a.Add(1, Whole(1, a.Set[1]))
	s := a.String()
	if !strings.Contains(s, "P0") || !strings.Contains(s, "[pre τ1]") {
		t.Errorf("String() = %q", s)
	}
}

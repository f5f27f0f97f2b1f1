package task

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		tk Task
		ok bool
	}{
		{Task{Name: "a", C: 1, T: 10}, true},
		{Task{Name: "b", C: 10, T: 10}, true},
		{Task{Name: "c", C: 11, T: 10}, false},
		{Task{Name: "d", C: 0, T: 10}, false},
		{Task{Name: "e", C: -1, T: 10}, false},
		{Task{Name: "f", C: 1, T: 0}, false},
		{Task{Name: "g", C: 1, T: -5}, false},
	}
	for _, c := range cases {
		err := c.tk.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%v: Validate() = %v, want ok=%v", c.tk, err, c.ok)
		}
	}
}

func TestTaskUtilization(t *testing.T) {
	if u := (Task{C: 1, T: 4}).Utilization(); u != 0.25 {
		t.Errorf("utilization = %g, want 0.25", u)
	}
	if u := (Task{C: 7, T: 7}).Utilization(); u != 1 {
		t.Errorf("utilization = %g, want 1", u)
	}
}

func TestSetSortRMAndIsSorted(t *testing.T) {
	s := Set{
		{Name: "long", C: 1, T: 100},
		{Name: "short", C: 1, T: 10},
		{Name: "mid", C: 1, T: 50},
	}
	if s.IsSortedRM() {
		t.Fatal("unsorted set reported sorted")
	}
	s.SortRM()
	if !s.IsSortedRM() {
		t.Fatal("sorted set reported unsorted")
	}
	if s[0].Name != "short" || s[1].Name != "mid" || s[2].Name != "long" {
		t.Errorf("wrong order: %v", s)
	}
}

func TestSortRMStableOnTies(t *testing.T) {
	s := Set{
		{Name: "a", C: 1, T: 10},
		{Name: "b", C: 2, T: 10},
		{Name: "c", C: 3, T: 10},
	}
	s.SortRM()
	if s[0].Name != "a" || s[1].Name != "b" || s[2].Name != "c" {
		t.Errorf("tie order not preserved: %v", s)
	}
}

func TestSetValidate(t *testing.T) {
	if err := (Set{}).Validate(); err == nil {
		t.Error("empty set validated")
	}
	s := Set{{Name: "x", C: 5, T: 4}}
	if err := s.Validate(); err == nil {
		t.Error("invalid task validated")
	}
	good := Set{{Name: "x", C: 2, T: 4}, {Name: "y", C: 1, T: 8}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

func TestSetUtilizations(t *testing.T) {
	s := Set{{C: 1, T: 4}, {C: 1, T: 2}} // 0.25 + 0.5
	if u := s.TotalUtilization(); math.Abs(u-0.75) > 1e-12 {
		t.Errorf("total = %g, want 0.75", u)
	}
	if u := s.NormalizedUtilization(3); math.Abs(u-0.25) > 1e-12 {
		t.Errorf("normalized = %g, want 0.25", u)
	}
	if u := s.MaxUtilization(); u != 0.5 {
		t.Errorf("max = %g, want 0.5", u)
	}
}

func TestIsLight(t *testing.T) {
	s := Set{{C: 2, T: 10}, {C: 4, T: 10}}
	if !s.IsLight(0.4) {
		t.Error("0.4-light set rejected")
	}
	if s.IsLight(0.39) {
		t.Error("set with a 0.4 task accepted as 0.39-light")
	}
}

func TestHyperperiod(t *testing.T) {
	s := Set{{C: 1, T: 4}, {C: 1, T: 6}, {C: 1, T: 10}}
	if h := s.Hyperperiod(); h != 60 {
		t.Errorf("hyperperiod = %d, want 60", h)
	}
	big := Set{
		{C: 1, T: (1 << 31) - 1},  // Mersenne prime 2147483647
		{C: 1, T: (1 << 31) - 99}, // big and coprime-ish
		{C: 1, T: (1 << 30) + 3},
	}
	if h := big.Hyperperiod(); h != math.MaxInt64 {
		t.Errorf("huge hyperperiod = %d, want saturation", h)
	}
}

func TestIsHarmonic(t *testing.T) {
	harmonic := Set{{C: 1, T: 4}, {C: 1, T: 8}, {C: 1, T: 16}, {C: 1, T: 4}}
	if !harmonic.IsHarmonic() {
		t.Error("harmonic set rejected")
	}
	not := Set{{C: 1, T: 4}, {C: 1, T: 6}}
	if not.IsHarmonic() {
		t.Error("non-harmonic set accepted")
	}
	if !(Set{}).IsHarmonic() {
		t.Error("empty set should be trivially harmonic")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := Set{{Name: "a", C: 1, T: 2}}
	c := s.Clone()
	c[0].C = 99
	if s[0].C != 1 {
		t.Error("Clone aliases backing array")
	}
}

func TestWhole(t *testing.T) {
	w := Whole(3, Task{Name: "x", C: 5, T: 20})
	if w.TaskIndex != 3 || w.Part != 1 || w.C != 5 || w.T != 20 || w.Deadline != 20 || w.Offset != 0 || !w.Tail {
		t.Errorf("Whole produced %+v", w)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("Whole invalid: %v", err)
	}
}

func TestSubtaskValidate(t *testing.T) {
	good := Subtask{TaskIndex: 0, Part: 2, C: 3, T: 10, Deadline: 7, Offset: 3, Tail: true}
	if err := good.Validate(); err != nil {
		t.Errorf("valid subtask rejected: %v", err)
	}
	bad := []Subtask{
		{TaskIndex: -1, Part: 1, C: 1, T: 10, Deadline: 10},
		{TaskIndex: 0, Part: 0, C: 1, T: 10, Deadline: 10},
		{TaskIndex: 0, Part: 1, C: 0, T: 10, Deadline: 10},
		{TaskIndex: 0, Part: 1, C: 1, T: 0, Deadline: 10},
		{TaskIndex: 0, Part: 1, C: 1, T: 10, Deadline: 0},
		{TaskIndex: 0, Part: 1, C: 1, T: 10, Deadline: 11},
		{TaskIndex: 0, Part: 1, C: 1, T: 10, Deadline: 9, Offset: 2}, // offset ≠ T−Δ
		{TaskIndex: 0, Part: 1, C: 8, T: 10, Deadline: 7, Offset: 3}, // C > Δ
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad subtask %d (%+v) validated", i, s)
		}
	}
}

func TestSubtaskUtilizationProperty(t *testing.T) {
	f := func(c, d uint16) bool {
		cc := Time(c%1000) + 1
		tt := cc + Time(d%1000)
		s := Subtask{TaskIndex: 0, Part: 1, C: cc, T: tt, Deadline: tt, Tail: true}
		return math.Abs(s.Utilization()-float64(cc)/float64(tt)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRenderings(t *testing.T) {
	tk := Task{Name: "cam", C: 2, T: 10}
	if got := tk.String(); got != "cam(2/10)" {
		t.Errorf("Task.String() = %q", got)
	}
	anon := Task{C: 2, T: 10}
	if got := anon.String(); !strings.Contains(got, "2/10") {
		t.Errorf("anonymous Task.String() = %q", got)
	}
	s := Set{tk}
	if got := s.String(); !strings.Contains(got, "cam(2/10)") {
		t.Errorf("Set.String() = %q", got)
	}
	sub := Subtask{TaskIndex: 1, Part: 2, C: 3, T: 12, Deadline: 9, Offset: 3, Tail: true}
	if got := sub.String(); !strings.Contains(got, "τ1.2t") {
		t.Errorf("Subtask.String() = %q", got)
	}
}

func TestNormalizedUtilizationPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for m=0")
		}
	}()
	Set{{C: 1, T: 2}}.NormalizedUtilization(0)
}

// TestDomainEdge pins the model's domain at every Validate: the largest
// in-domain task, subtask and set are accepted, and one tick or one task
// more is refused with an error wrapping ErrDomain.
func TestDomainEdge(t *testing.T) {
	if err := (Task{C: MaxTime, T: MaxTime, D: MaxTime}).Validate(); err != nil {
		t.Errorf("task at MaxTime: %v", err)
	}
	if err := (Task{C: 1, T: MaxTime + 1}).Validate(); !errors.Is(err, ErrDomain) {
		t.Errorf("task past MaxTime: %v, want ErrDomain", err)
	}
	if err := Whole(0, Task{C: MaxTime, T: MaxTime}).Validate(); err != nil {
		t.Errorf("subtask at MaxTime: %v", err)
	}
	if err := Whole(0, Task{C: 1, T: MaxTime + 1}).Validate(); !errors.Is(err, ErrDomain) {
		t.Errorf("subtask past MaxTime: %v, want ErrDomain", err)
	}
	set := make(Set, MaxTasks+1)
	for i := range set {
		set[i] = Task{C: 1, T: 10}
	}
	if err := set[:MaxTasks].Validate(); err != nil {
		t.Errorf("set of MaxTasks: %v", err)
	}
	if err := set.Validate(); !errors.Is(err, ErrDomain) {
		t.Errorf("set of MaxTasks+1: %v, want ErrDomain", err)
	}
}

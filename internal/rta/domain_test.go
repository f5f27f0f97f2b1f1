package rta

import (
	"testing"

	"repro/internal/task"
)

// Rows at the corner of the model's domain (task.MaxTime, task.MaxTasks):
// the largest magnitudes any edge lets through. The kernels run unchecked
// arithmetic, so each row compares against the checked references of
// reference_test.go, where a wrapped demand would show as a divergence.

func TestResponseTimeHugePeriodNoWrap(t *testing.T) {
	r, v := responseOf(1, []Interference{{C: 1, T: task.MaxTime}}, task.MaxTime)
	if v != VerdictFits || r != 2 {
		t.Fatalf("got r=%d v=%v, want r=2 fits", r, v)
	}
}

func TestResponseTimeNearMaxParameters(t *testing.T) {
	const M = task.MaxTime
	cases := []struct {
		name  string
		c     task.Time
		hp    []Interference
		limit task.Time
	}{
		{"huge-everything", M / 2, []Interference{{C: M / 3, T: M - 1}}, M - 1},
		{"max-limit", M / 2, []Interference{{C: M / 2, T: M}}, M},
		// The demand at the first iterate, 2·MaxTime − 1, is past the limit.
		{"overflowing-demand", M - 1, []Interference{{C: 1, T: 1}}, M},
		{"many-huge", M / 4, []Interference{
			{C: M / 4, T: M / 2},
			{C: M / 4, T: M / 3},
		}, M},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, v := responseOf(c.c, c.hp, c.limit)
			wr, wv := refResponseTimeVerdict(c.c, c.hp, c.limit)
			if r != wr || v != wv {
				t.Fatalf("got (%d, %v), checked reference (%d, %v)", r, v, wr, wv)
			}
		})
	}
}

// TestOverflowingDemandIsExceedsLimit evaluates the largest demand the
// domain admits (DESIGN.md §13): MaxTasks−1 interferers with C = T = 1 and
// an own execution sized so the first iterate lands just under MaxTime.
// The second demand is then about 2^60 — far past the limit but inside
// int64 — and must be the checked reference's exact over-limit verdict,
// not a wrapped small number.
func TestOverflowingDemandIsExceedsLimit(t *testing.T) {
	const n = task.MaxTasks - 1
	hp := make([]Interference, n)
	for j := range hp {
		hp[j] = Interference{C: 1, T: 1}
	}
	own := (task.MaxTime - n*n) / (n + 1)
	r, v := responseOf(own, hp, task.MaxTime)
	wr, wv := refResponseTimeVerdict(own, hp, task.MaxTime)
	if r != wr || v != wv {
		t.Fatalf("got (%d, %v), checked reference (%d, %v)", r, v, wr, wv)
	}
	if v != VerdictExceedsLimit || r < 1<<59 {
		t.Fatalf("got (%d, %v), want an exceeds-limit iterate near 2^60", r, v)
	}
}

// TestSlackHugePeriodTerminates pins the testing-point walk at the largest
// periods and deadline of the domain.
func TestSlackHugePeriodTerminates(t *testing.T) {
	const M = task.MaxTime
	list := []task.Subtask{{TaskIndex: 0, Part: 1, C: 10, T: M, Deadline: M, Tail: true}}
	if got, want := listSlack(list, 0, M/2), refSlack(list, 0, M/2); got != want {
		t.Fatalf("SlackAtMost = %d, checked reference %d", got, want)
	}
	list2 := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: 5, T: M / 2, Deadline: M / 2, Tail: true},
		{TaskIndex: 1, Part: 1, C: 10, T: M, Deadline: M, Tail: true},
	}
	if got, want := listSlack(list2, 1, M/3), refSlack(list2, 1, M/3); got != want {
		t.Fatalf("SlackAtMost with huge hp = %d, checked reference %d", got, want)
	}
}

func TestMaxOwnLoadHugeDeadlineTerminates(t *testing.T) {
	const M = task.MaxTime
	hp := []Interference{{C: 1, T: M / 2}}
	got := hpState(hp).MaxOwnLoadAt(1, M)
	if want := refMaxOwnLoad(hp, M); got != want || got <= 0 {
		t.Fatalf("MaxOwnLoadAt = %d, checked reference %d (want positive)", got, want)
	}
}

// TestProcessorSchedulableAdversarialSet runs the full per-processor check
// on a subtask list at the domain corner, the largest shape cmd/schedtest
// accepts from a task file.
func TestProcessorSchedulableAdversarialSet(t *testing.T) {
	const M = task.MaxTime
	list := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: M / 3, T: M / 2, Deadline: M / 2, Tail: true},
		{TaskIndex: 1, Part: 1, C: M / 3, T: M - 1, Deadline: M - 1, Tail: true},
	}
	for i := range list {
		if err := list[i].Validate(); err != nil {
			t.Fatalf("row leaves the domain: %v", err)
		}
	}
	if got, want := ProcessorSchedulable(list), refProcessorSchedulable(list); got != want {
		t.Fatalf("ProcessorSchedulable = %v, checked reference %v", got, want)
	}
	if !ProcessorSchedulable(list[:1]) {
		t.Error("single task with C < D rejected")
	}
}

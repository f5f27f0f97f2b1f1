package rta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/task"
)

// Adversarial near-MaxInt64 parameters (the cmd/schedtest attack surface:
// task files are arbitrary int64s). Before the mathx.CeilDiv hardening,
// ⌈r/T⌉ with r ≥ 2 and T = MaxInt64 wrapped the intermediate sum negative
// and the analysis panicked inside MulSat; these tests pin the repaired
// behaviour: finite, sound verdicts, no panic, no hang.

func TestResponseTimeHugePeriodNoWrap(t *testing.T) {
	// r reaches 2 > 1, so the old (r+T-1)/T intermediate wrapped negative.
	r, v := ResponseTimeVerdict(1, []task.Time{1}, []task.Time{math.MaxInt64}, math.MaxInt64)
	if v != VerdictFits || r != 2 {
		t.Fatalf("got r=%d v=%v, want r=2 fits", r, v)
	}
}

func TestResponseTimeNearMaxParameters(t *testing.T) {
	cases := []struct {
		name  string
		c     task.Time
		hp    []Interference
		limit task.Time
	}{
		{"huge-everything", math.MaxInt64 / 2, []Interference{{C: math.MaxInt64 / 3, T: math.MaxInt64 - 1}}, math.MaxInt64 - 1},
		{"max-limit", math.MaxInt64 / 2, []Interference{{C: math.MaxInt64 / 2, T: math.MaxInt64}}, math.MaxInt64},
		{"overflowing-demand", math.MaxInt64 - 1, []Interference{{C: math.MaxInt64 - 1, T: 1}}, math.MaxInt64},
		{"many-huge", math.MaxInt64 / 4, []Interference{
			{C: math.MaxInt64 / 4, T: math.MaxInt64 / 2},
			{C: math.MaxInt64 / 4, T: math.MaxInt64 / 3},
		}, math.MaxInt64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs, ts := columns(c.hp)
			r, v := ResponseTimeVerdict(c.c, cs, ts, c.limit)
			if r < 0 {
				t.Fatalf("negative response %d (silent wrap), verdict %v", r, v)
			}
			if v == VerdictFits {
				// A claimed fixed point must actually satisfy the equation
				// within the limit.
				if r > c.limit {
					t.Fatalf("fits with r=%d above limit %d", r, c.limit)
				}
			}
		})
	}
}

// TestOverflowingDemandIsExceedsLimit pins the degradation contract: a
// busy-period sum that no longer fits in int64 is an explicit over-limit
// verdict, not a wrapped small number reported as fitting.
func TestOverflowingDemandIsExceedsLimit(t *testing.T) {
	// Demand at any r ≥ 1: c + ⌈r/1⌉·(MaxInt64-1) overflows immediately,
	// and the limit is MaxInt64, so only the overflow check can reject.
	r, v := ResponseTimeVerdict(math.MaxInt64-1, []task.Time{math.MaxInt64 - 1}, []task.Time{1}, math.MaxInt64)
	if v != VerdictExceedsLimit {
		t.Fatalf("verdict %v (r=%d), want exceeds-limit", v, r)
	}
}

// TestSlackHugePeriodTerminates pins the testing-point loop fix: with a
// deadline of MaxInt64 and a period above MaxInt64/2, the saturated
// multiple m·T never exceeded d and the loop never terminated.
func TestSlackHugePeriodTerminates(t *testing.T) {
	list := []task.Subtask{{TaskIndex: 0, Part: 1, C: 10, T: math.MaxInt64, Deadline: math.MaxInt64, Tail: true}}
	if got := listSlack(list, 0, math.MaxInt64/2); got < 0 {
		t.Fatalf("Slack = %d, want non-negative", got)
	}
	list2 := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: 5, T: math.MaxInt64 / 2, Deadline: math.MaxInt64 / 2, Tail: true},
		{TaskIndex: 1, Part: 1, C: 10, T: math.MaxInt64, Deadline: math.MaxInt64, Tail: true},
	}
	if got := listSlack(list2, 1, math.MaxInt64/3); got < 0 {
		t.Fatalf("Slack with huge hp = %d, want non-negative", got)
	}
}

func TestMaxOwnLoadHugeDeadlineTerminates(t *testing.T) {
	got := MaxOwnLoad([]task.Time{1}, []task.Time{math.MaxInt64 / 2}, math.MaxInt64)
	if got <= 0 {
		t.Fatalf("MaxOwnLoad = %d, want positive", got)
	}
}

// TestProcessorSchedulableAdversarialSet runs the full per-processor check
// on a near-MaxInt64 subtask list, the shape cmd/schedtest would build from
// an adversarial task file.
func TestProcessorSchedulableAdversarialSet(t *testing.T) {
	list := []task.Subtask{
		{TaskIndex: 0, Part: 1, C: math.MaxInt64 / 3, T: math.MaxInt64 / 2, Deadline: math.MaxInt64 / 2, Tail: true},
		{TaskIndex: 1, Part: 1, C: math.MaxInt64 / 3, T: math.MaxInt64 - 1, Deadline: math.MaxInt64 - 1, Tail: true},
	}
	// Must neither panic nor hang; either verdict is acceptable as long as
	// it is reached.
	_ = ProcessorSchedulable(list)
	if !ProcessorSchedulable(list[:1]) {
		t.Error("single task with C < D rejected")
	}
}

// TestBatchSafeDivisionFreeAgrees checks batchSafe's division-free test
// against the precheck it short-cuts, on magnitudes around its 2^31 and
// 2^32 edges: the division-free answer may only be "safe" where
// interferenceBound also proves it, and the answer must never change.
func TestBatchSafeDivisionFreeAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	mags := []int64{1, 1 << 10, 1 << 29, 1 << 30, 1 << 31, 1 << 32, 1 << 40, math.MaxInt64 / 4}
	pick := func() task.Time {
		m := mags[r.Intn(len(mags))]
		return task.Time(1 + r.Int63n(m))
	}
	for trial := 0; trial < 20000; trial++ {
		n := r.Intn(6)
		cs := make([]task.Time, n)
		ts := make([]task.Time, n)
		for k := range ts {
			cs[k], ts[k] = pick(), pick()
		}
		own, maxL := pick(), pick()
		if trial%7 == 0 {
			maxL = 1<<31 - task.Time(r.Intn(2))
		}
		bound, ok := interferenceBound(cs, ts, maxL)
		want := ok && bound <= uint64(math.MaxInt64)-uint64(own)
		if got := batchSafe(own, cs, ts, maxL); got != want {
			t.Fatalf("batchSafe(%d, %v, %v, %d) = %v, interferenceBound says %v", own, cs, ts, maxL, got, want)
		}
	}
}

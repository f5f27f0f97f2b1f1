package rta

import (
	"math"

	"repro/internal/faultinject"
	"repro/internal/mathx"
	"repro/internal/task"
)

// Array-of-structs reference analysis: the fixed point, testing-point slack
// and max own load as the package first computed them, one Interference
// struct per higher-priority load. Production holds interferers only as
// parallel cs/ts slices (batch.go); these bodies are kept verbatim as the
// independent oracle FuzzBatchVsScalarRTA checks every kernel against.
// Their arithmetic stays checked or saturating, so a production kernel that
// wrapped on some input would diverge from them there.

// addChecked returns a+b for non-negative a, b, and false (with
// math.MaxInt64) when the sum leaves int64.
func addChecked(a, b int64) (int64, bool) {
	if a > math.MaxInt64-b {
		return math.MaxInt64, false
	}
	return a + b, true
}

// mulChecked returns a*b for non-negative a, b, and false (with
// math.MaxInt64) when the product leaves int64.
func mulChecked(a, b int64) (int64, bool) {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64, false
	}
	return a * b, true
}

// Interference is a higher-priority load source: a task releasing jobs of
// length C every T ticks.
type Interference struct {
	C task.Time
	T task.Time
}

// refColdStart is the cold-start lower bound over an interference set plus
// the optional extra interferer.
func refColdStart(c task.Time, hp []Interference, extraC task.Time) task.Time {
	r := mathx.AddSat(c, extraC)
	for _, j := range hp {
		r = mathx.AddSat(r, j.C)
	}
	return r
}

// iterate finds the least fixed point of
//
//	R = c + Σ_{j ∈ hp} ⌈R/T_j⌉·C_j [+ ⌈R/extraT⌉·extraC]
//
// starting from start, which must be a valid lower bound on the least fixed
// point. A zero extraT disables the extra interferer term. iters counts
// demand evaluations (0 when c alone already exceeds limit or start does).
func iterate(c task.Time, hp []Interference, extraC, extraT, limit, start task.Time) (task.Time, Verdict, int64) {
	if c > limit {
		return c, VerdictExceedsLimit, 0
	}
	if faultinject.ShouldAbortRTA() {
		// Injected iteration-cap abort: report the current iterate exactly
		// as the genuine MaxIters path would, without doing the work.
		return start, VerdictAborted, 0
	}
	r := start
	iters := int64(0)
	for {
		if r > limit {
			return r, VerdictExceedsLimit, iters
		}
		if iters >= MaxIters {
			return r, VerdictAborted, iters
		}
		next := c
		ok := true
		for _, j := range hp {
			var contrib task.Time
			if contrib, ok = mulChecked(mathx.CeilDiv(r, j.T), j.C); ok {
				next, ok = addChecked(next, contrib)
			}
			if !ok {
				break
			}
		}
		if ok && extraT > 0 {
			var contrib task.Time
			if contrib, ok = mulChecked(mathx.CeilDiv(r, extraT), extraC); ok {
				next, ok = addChecked(next, contrib)
			}
		}
		iters++
		if !ok {
			// The demand at iterate r overflows int64, so the true demand —
			// and with it the least fixed point — exceeds MaxInt64 ≥ limit:
			// an exact over-limit verdict, not a silent wrap.
			return task.Time(math.MaxInt64), VerdictExceedsLimit, iters
		}
		if next == r {
			return r, VerdictFits, iters
		}
		if next < r {
			// Only possible if start was not a lower bound on the fixed
			// point — a broken warm-start invariant, not bad input.
			panic("rta: response-time iteration decreased")
		}
		r = next
	}
}

// hpOf returns the interference set for position i in a priority-sorted
// subtask list (everything before position i).
func hpOf(list []task.Subtask, i int) []Interference {
	hp := make([]Interference, i)
	for j := 0; j < i; j++ {
		hp[j] = Interference{C: list[j].C, T: list[j].T}
	}
	return hp
}

// slackCore evaluates the testing-point slack of a task with execution c,
// deadline d and higher-priority set hp against a period-t interferer.
func slackCore(c, d task.Time, hp []Interference, t task.Time) task.Time {
	best := task.Time(-1)
	cSlackCalls.Inc()
	points := int64(0)
	defer func() { cSlackPoints.Add(points) }()
	check := func(x task.Time) {
		if x <= 0 || x > d {
			return
		}
		points++
		demand := c
		for _, j := range hp {
			demand = mathx.AddSat(demand, mathx.MulSat(mathx.CeilDiv(x, j.T), j.C))
		}
		if demand > x {
			return
		}
		jobs := mathx.CeilDiv(x, t)
		if jobs == 0 {
			jobs = 1
		}
		e := (x - demand) / jobs
		if e > best {
			best = e
		}
	}
	check(d)
	for _, j := range hp {
		for m := task.Time(1); ; m++ {
			// Checked multiply: an overflowing testing point m·T lies past
			// every deadline, and with MulSat alone the saturated x never
			// passes a d of MaxInt64, looping forever.
			x, ok := mulChecked(m, j.T)
			if !ok || x > d {
				break
			}
			check(x)
		}
	}
	for m := task.Time(1); ; m++ {
		x, ok := mulChecked(m, t)
		if !ok || x > d {
			break
		}
		check(x)
	}
	if best < 0 {
		return 0
	}
	if best == math.MaxInt64 {
		return math.MaxInt64
	}
	return best
}

// refMaxOwnLoad returns the largest execution time c such that a task with
// interference set hp has a response time at most d, over the exact testing
// set {m·T_j ≤ d} ∪ {d}.
func refMaxOwnLoad(hp []Interference, d task.Time) task.Time {
	if d <= 0 {
		return 0
	}
	best := task.Time(0)
	points := int64(0)
	defer func() { cLoadPoints.Add(points) }()
	check := func(x task.Time) {
		if x <= 0 || x > d {
			return
		}
		points++
		interf := task.Time(0)
		for _, j := range hp {
			interf = mathx.AddSat(interf, mathx.MulSat(mathx.CeilDiv(x, j.T), j.C))
		}
		if interf >= x {
			return
		}
		if c := x - interf; c > best {
			best = c
		}
	}
	check(d)
	for _, j := range hp {
		for m := task.Time(1); ; m++ {
			x, ok := mulChecked(m, j.T)
			if !ok || x > d {
				break
			}
			check(x)
		}
	}
	return best
}

// The list-level references, built on the bodies above exactly as the
// package's former list API was.

func refResponseTimeVerdict(c task.Time, hp []Interference, limit task.Time) (task.Time, Verdict) {
	r, v, _ := iterate(c, hp, 0, 0, limit, refColdStart(c, hp, 0))
	return r, v
}

func refSubtaskResponse(list []task.Subtask, i int) (task.Time, bool) {
	r, v := refResponseTimeVerdict(list[i].C, hpOf(list, i), list[i].Deadline)
	return r, v == VerdictFits
}

func refProcessorSchedulable(list []task.Subtask) bool {
	for i := range list {
		if _, ok := refSubtaskResponse(list, i); !ok {
			return false
		}
	}
	return true
}

func refSchedulableWithExtraAt(list []task.Subtask, prio int, c, t, d task.Time) bool {
	merged := make([]task.Subtask, 0, len(list)+1)
	inserted := false
	for _, s := range list {
		if !inserted && s.TaskIndex > prio {
			merged = append(merged, task.Subtask{TaskIndex: prio, Part: 1, C: c, T: t, Deadline: d, Offset: t - d, Tail: true})
			inserted = true
		}
		merged = append(merged, s)
	}
	if !inserted {
		merged = append(merged, task.Subtask{TaskIndex: prio, Part: 1, C: c, T: t, Deadline: d, Offset: t - d, Tail: true})
	}
	return refProcessorSchedulable(merged)
}

func refSlack(list []task.Subtask, i int, t task.Time) task.Time {
	return slackCore(list[i].C, list[i].Deadline, hpOf(list, i), t)
}

// listSlack is the production slack of list position i: the uncapped
// SlackAtMost of a freshly loaded state.
func listSlack(list []task.Subtask, i int, t task.Time) task.Time {
	ps := ProcState{}
	ps.Load(list)
	return ps.SlackAtMost(i, t, math.MaxInt64)
}

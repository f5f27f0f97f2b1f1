// Package rta implements exact response-time analysis (RTA) for preemptive
// fixed-priority scheduling on a single processor with constrained
// (synthetic) deadlines — the schedulability test that the paper's
// partitioning algorithms use in their Assign routine (§IV-A) in place of
// the utilization threshold of [16].
//
// For a (sub)task i with higher-priority interference set hp(i) on the same
// processor, the worst-case response time is the least fixed point of
//
//	R = C_i + Σ_{j ∈ hp(i)} ⌈R/T_j⌉ · C_j
//
// and i is schedulable iff R ≤ Δ_i, its synthetic deadline. Because all
// deadlines are constrained (Δ ≤ T) and releases are synchronous in the
// worst case, checking the first job after the critical instant is exact.
//
// A subtle point from the paper (Lemma 5): a split subtask's *ready time*
// is deferred by its predecessors, but the interference it inflicts on
// lower-priority tasks on its processor is still safely modelled by its
// period, because deferral can only reduce the number of preemptions in any
// window starting at a synchronous critical instant of the analysed task.
// The synthetic deadline absorbs the deferral on the analysed task's side.
//
// This file is the scalar list API: from-scratch analysis of one
// priority-sorted subtask list. Each function copies the list's execution
// times and periods into a cs/ts pair (Mirror) and runs the checked kernels
// of batch.go, exact on every int64 input. ProcState (cache.go) is the
// incremental engine the partitioners use; it runs the same kernels on the
// same layout, taking the fast ones wherever an overflow precheck allows.
package rta

import (
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/task"
)

// Instrumentation (see internal/obs): the cost of exact RTA is the quantity
// the paper's average-case argument turns on — RM-TS does more work per
// admission decision than SPA1/SPA2's utilization threshold, and these
// metrics make that work measurable. All hooks are no-ops unless
// obs.SetEnabled(true).
var (
	cCalls       = obs.NewCounter("rta.calls")
	cIters       = obs.NewCounter("rta.iterations")
	cAborts      = obs.NewCounter("rta.limit_exceeded")
	cSlackCalls  = obs.NewCounter("rta.slack.calls")
	cSlackPoints = obs.NewCounter("rta.slack.points")
	cLoadPoints  = obs.NewCounter("rta.maxload.points")
	hItersPer    = obs.NewHistogram("rta.iters_per_call")
)

// IterationsValue returns the running total of response-time fixed-point
// iterations (0 unless metrics are enabled). Decision traces read deltas of
// this between single-goroutine admission checks.
func IterationsValue() int64 { return cIters.Value() }

// AbortsValue returns the running total of iteration-limit aborts (0 unless
// metrics are enabled). Decision traces read deltas of this to mark
// admission decisions whose "no" came from an abort rather than a proven
// deadline miss.
func AbortsValue() int64 { return cAborts.Value() }

// MaxIters caps the number of demand-function evaluations per response-time
// fixed point. Each iterate strictly increases the candidate response by at
// least one tick, so the iteration always terminates on its own; the cap
// exists to bound the worst case on adversarial inputs (huge deadlines over
// tiny periods) and to make the abort path testable. An aborted evaluation
// is reported as VerdictAborted and treated as unschedulable, which is
// sound (the true response may still exceed the limit) but not exact.
//
// Mutate only from single-goroutine setup code (tests); the analysis reads
// it without synchronization.
var MaxIters int64 = 1 << 20

// Verdict classifies the outcome of a response-time evaluation, letting
// callers distinguish a sound "no" (the demand provably exceeds the limit)
// from an iteration-cap abort (unschedulable by fiat, see MaxIters).
type Verdict uint8

const (
	// VerdictFits: the iteration converged to a fixed point R ≤ limit.
	VerdictFits Verdict = iota
	// VerdictExceedsLimit: some iterate exceeded the limit, proving the
	// least fixed point does too — a sound and exact "no".
	VerdictExceedsLimit
	// VerdictAborted: MaxIters demand evaluations elapsed without
	// convergence; treated as unschedulable for soundness.
	VerdictAborted
)

func (v Verdict) String() string {
	switch v {
	case VerdictFits:
		return "fits"
	case VerdictExceedsLimit:
		return "exceeds-limit"
	case VerdictAborted:
		return "aborted"
	default:
		return "verdict(?)"
	}
}

// ResponseTimeVerdict computes the least fixed point R of
// R = c + Σ_j ⌈R/T_j⌉·C_j over the interferers (cs[j], ts[j]), stopping as
// soon as R exceeds limit, and reports the three-way outcome: converged
// within limit, proven over limit, or aborted at the MaxIters cap (see
// Verdict). Both non-fitting verdicts mean "treat as unschedulable", but
// only VerdictExceedsLimit is an exact answer.
//
// The iteration starts at c plus one job of every interferer, a lower bound
// on the fixed point, and runs the checked kernel (fixpointChecked), so it
// is exact on every int64 input. The interferers may come in any order:
// saturating cold starts and checked sums of non-negative terms do not
// depend on it, so neither do responses, verdicts or iteration counts.
func ResponseTimeVerdict(c task.Time, cs, ts []task.Time, limit task.Time) (task.Time, Verdict) {
	r, v, iters := fixpointChecked(c, cs, ts, limit, coldStart(c, cs))
	account(v, iters)
	return r, v
}

// account records one response-time evaluation in the obs registry.
func account(v Verdict, iters int64) {
	if obs.On() {
		cCalls.Inc()
		cIters.Add(iters)
		hItersPer.Observe(iters)
		if v == VerdictAborted {
			cAborts.Inc()
		}
	}
}

// coldStart returns the classic lower bound on the least fixed point used
// when no cached response is available: the task's own demand plus one job
// of every interferer.
func coldStart(c task.Time, cs []task.Time) task.Time {
	r := c
	for _, cj := range cs {
		r = mathx.AddSat(r, cj)
	}
	return r
}

// Mirror copies the execution times and periods of a priority-sorted
// subtask list into parallel slices carved from one buffer, so position i's
// higher-priority interferers are the prefixes cs[:i], ts[:i] and one
// mirror serves a whole processor scan. *buf is reallocated only when its
// capacity is short, and keeps the storage for the next call.
func Mirror(list []task.Subtask, buf *[]task.Time) (cs, ts []task.Time) {
	n := len(list)
	if cap(*buf) < 2*n {
		*buf = make([]task.Time, 2*n)
	}
	all := (*buf)[:2*n]
	cs, ts = all[:n:n], all[n:]
	for i, s := range list {
		cs[i], ts[i] = s.C, s.T
	}
	return cs, ts
}

// ProcessorSchedulableScratch is ProcessorSchedulable evaluated against a
// caller-provided mirror buffer (see Mirror), so the whole check allocates
// nothing once buf has capacity. The (possibly grown) buffer is returned
// for reuse.
func ProcessorSchedulableScratch(list []task.Subtask, buf []task.Time) (bool, []task.Time) {
	cs, ts := Mirror(list, &buf)
	for i, s := range list {
		if _, v := ResponseTimeVerdict(s.C, cs[:i], ts[:i], s.Deadline); v != VerdictFits {
			return false, buf
		}
	}
	return true, buf
}

// SubtaskResponse computes the response time of the subtask at position i of
// the priority-sorted list (highest priority first), and whether it meets
// its synthetic deadline.
func SubtaskResponse(list []task.Subtask, i int) (task.Time, bool) {
	cs, ts := Mirror(list[:i], new([]task.Time))
	r, v := ResponseTimeVerdict(list[i].C, cs, ts, list[i].Deadline)
	return r, v == VerdictFits
}

// ProcessorSchedulable reports whether every subtask in the priority-sorted
// list meets its synthetic deadline under preemptive fixed-priority
// scheduling.
func ProcessorSchedulable(list []task.Subtask) bool {
	ok, _ := ProcessorSchedulableScratch(list, nil)
	return ok
}

// SchedulableWithExtra reports whether the processor stays schedulable when
// a new highest-priority load (c, t) is added on top of the priority-sorted
// list, and whether the new load itself would meet deadline d.
//
// This is the admission check of Assign (§IV-A): the incoming (sub)task has
// the highest priority on the processor because tasks are assigned in
// increasing priority order, so its own response time is exactly c; every
// existing subtask additionally suffers ⌈R/t⌉·c of interference.
func SchedulableWithExtra(list []task.Subtask, c, t, d task.Time) bool {
	if c > d {
		return false
	}
	// The load leads the mirror, so list position i's interferers are the
	// prefixes of length i+1: the load plus every resident above i.
	cs, ts := Mirror(append([]task.Subtask{{C: c, T: t}}, list...), new([]task.Time))
	for i, s := range list {
		if _, v := ResponseTimeVerdict(s.C, cs[:i+1], ts[:i+1], s.Deadline); v != VerdictFits {
			return false
		}
	}
	return true
}

// SchedulableWithExtraAt reports whether the processor stays schedulable
// when a new load (c, t) with priority index prio is inserted into the
// priority-sorted list at its proper position, and the new load itself
// meets deadline d. Unlike SchedulableWithExtra, the new load may have
// lower priority than some existing subtasks (needed for analyses that
// re-check arbitrary insertions, e.g. test harnesses and the simulator
// cross-checks; the paper's algorithms only ever insert at the top).
func SchedulableWithExtraAt(list []task.Subtask, prio int, c, t, d task.Time) bool {
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
	return ProcessorSchedulable(merged)
}

// Slack returns, for a task with execution c and deadline d under the
// higher-priority interferers (cs, ts), the largest extra execution budget
// e such that a new highest-priority interferer (e, t) keeps the task
// schedulable — the per-task quantity minimized by the efficient MaxSplit.
// It evaluates the schedulability condition
//
//	∃ x ∈ (0, d]:  c + Σ_j ⌈x/T_j⌉C_j + ⌈x/t⌉·e ≤ x
//
// over the exact testing set {m·T_j ≤ d} ∪ {m·t ≤ d} ∪ {d} and returns the
// maximum feasible e (0 if none; math.MaxInt64 if unbounded, which cannot
// happen for t ≤ d since ⌈x/t⌉ ≥ 1). It runs the checked kernel
// (slackCheckedBatch), exact on every int64 input.
func Slack(c, d task.Time, cs, ts []task.Time, t task.Time) task.Time {
	return slackCheckedBatch(c, d, cs, ts, t)
}

// MaxOwnLoad returns the largest execution time c such that a task under
// the interferers (cs, ts) has a response time at most d, i.e. the largest
// c with ∃ x ∈ (0, d]: c + Σ_j ⌈x/T_j⌉C_j ≤ x. It evaluates the exact
// testing set {m·T_j ≤ d} ∪ {d} with the checked kernel
// (maxOwnLoadCheckedBatch). Returns 0 when even an infinitesimal task would
// miss d.
func MaxOwnLoad(cs, ts []task.Time, d task.Time) task.Time {
	return maxOwnLoadCheckedBatch(cs, ts, d)
}

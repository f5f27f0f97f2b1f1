// Package split implements the MaxSplit routine of the paper (§IV-A,
// Definition 3): given a (sub)task that does not fit entirely on its
// candidate processor, find the largest prefix that can be assigned there
// without making any task on that processor unschedulable — leaving the
// processor with a bottleneck — and return the remainder for the next
// assignment step.
//
// The testing-point method the paper cites from [22] evaluates the RTA
// slack of each resident subtask at the points where the interference step
// functions change. It comes in two forms: MaxPortionState on a
// processor's incremental analysis state (the partitioners' path, fast
// kernels) and MaxPortion/MaxPortionScratch/MaxPortionAt on a subtask list
// (from-scratch, checked kernels). MaxPortionBinary is the binary-search
// method the paper sketches ("performing a binary search over [0, C^k]"),
// kept because the split-ablation experiment measures it against the
// testing-point method. All are exact on the integer time domain and are
// cross-checked against each other by property tests.
package split

import (
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/task"
)

// Instrumentation (no-ops unless obs.SetEnabled): the testing-point method
// is the paper's efficiency claim over binary search, and these counters
// let the split-ablation experiment quantify the work each does — slack
// evaluations per testing-point call (see rta.slack.*) versus full
// admission probes per binary-search call.
var (
	cTPCalls   = obs.NewCounter("split.tp.calls")
	cBinCalls  = obs.NewCounter("split.bin.calls")
	cBinProbes = obs.NewCounter("split.bin.probes")
)

// MaxPortion returns the largest c' in [0, budget] such that adding a new
// highest-priority load (c', t) to the priority-sorted resident list keeps
// every resident subtask schedulable and c' itself fits within deadline d
// (the synthetic deadline the new body fragment would have).
//
// It minimizes, over the resident subtasks, the exact RTA slack with
// respect to a period-t interferer.
func MaxPortion(list []task.Subtask, t, budget, d task.Time) task.Time {
	portion, _ := MaxPortionScratch(list, t, budget, d, nil)
	return portion
}

// MaxPortionScratch is MaxPortion with a caller-provided mirror buffer: the
// resident mirror is built once (rta.Mirror) and each resident's
// higher-priority set is a prefix of it, so a call allocates nothing once
// buf has capacity. The (possibly grown) buffer is returned for reuse.
func MaxPortionScratch(list []task.Subtask, t, budget, d task.Time, buf []task.Time) (task.Time, []task.Time) {
	cTPCalls.Inc()
	if budget <= 0 {
		return 0, buf
	}
	best := budget
	if d < best {
		best = d
	}
	if best <= 0 {
		return 0, buf
	}
	cs, ts := rta.Mirror(list, &buf)
	for i := range list {
		if s := rta.Slack(list[i].C, list[i].Deadline, cs[:i], ts[:i], t); s < best {
			best = s
		}
		if best == 0 {
			return 0, buf
		}
	}
	return best, buf
}

// MaxPortionAt generalizes MaxPortion to an arbitrary priority position:
// the new load (c', t) is inserted with priority index prio into the
// priority-sorted resident list, below every resident whose task index is
// at most prio (the tie rule of task.Assignment.Add, rta.ProcState.PosFor
// and rta.SchedulableWithExtraAt). It returns the largest c' in
// [0, budget] such that the new fragment's own response time stays within
// d and every lower-priority resident stays schedulable. Residents with
// higher priority are unaffected by construction.
//
// The paper's algorithms only insert at the top (assignment in increasing
// priority order guarantees it, Lemma 2); the general form is needed for
// RM-TS phase 3, where a processor may already host a pre-assigned task of
// either priority relative to the incoming one.
func MaxPortionAt(list []task.Subtask, prio int, t, budget, d task.Time) task.Time {
	cTPCalls.Inc()
	if budget <= 0 || d <= 0 {
		return 0
	}
	pos := 0
	for pos < len(list) && list[pos].TaskIndex <= prio {
		pos++
	}
	cs, ts := rta.Mirror(list, new([]task.Time))
	best := rta.MaxOwnLoad(cs[:pos], ts[:pos], d)
	if budget < best {
		best = budget
	}
	if best <= 0 {
		return 0
	}
	for i := pos; i < len(list); i++ {
		if s := rta.Slack(list[i].C, list[i].Deadline, cs[:i], ts[:i], t); s < best {
			best = s
		}
		if best == 0 {
			return 0
		}
	}
	return best
}

// MaxPortionState is MaxPortionAt evaluated on a processor's incremental
// analysis state instead of a fresh subtask slice: the interference view
// (including any analysis surcharge) is the state's reused mirror, so a
// probe allocates nothing. The budget is in the state's surcharged units —
// callers with a per-fragment surcharge s pass budget+s and subtract s from
// the result, exactly as with a surcharged list view.
//
// Decision-equivalent to MaxPortionAt on the equivalent list view; the
// property test in the partition package pins this.
func MaxPortionState(ps *rta.ProcState, prio int, t, budget, d task.Time) task.Time {
	cTPCalls.Inc()
	if budget <= 0 || d <= 0 {
		return 0
	}
	pos := ps.PosFor(prio)
	best := ps.MaxOwnLoadAt(pos, d)
	if budget < best {
		best = budget
	}
	if best <= 0 {
		return 0
	}
	for i := pos; i < ps.Len(); i++ {
		// The fold only keeps slacks below the running minimum, so the capped
		// scan lets each resident stop enumerating testing points as soon as
		// its partial maximum proves it cannot lower that minimum.
		if s := ps.SlackAtMost(i, t, best); s < best {
			best = s
		}
		if best == 0 {
			return 0
		}
	}
	return best
}

// MaxPortionBinary is the reference implementation of MaxPortion: it binary
// searches the largest feasible c' in [0, min(budget, d)], using the full
// admission check at each probe. Schedulability is monotone in c' (a larger
// fragment only adds interference), so the search is exact.
func MaxPortionBinary(list []task.Subtask, t, budget, d task.Time) task.Time {
	cBinCalls.Inc()
	hi := budget
	if d < hi {
		hi = d
	}
	if hi <= 0 {
		return 0
	}
	feasible := func(c task.Time) bool {
		cBinProbes.Inc()
		if c == 0 {
			return true
		}
		return rta.SchedulableWithExtra(list, c, t, d)
	}
	if feasible(hi) {
		return hi
	}
	lo := task.Time(0) // feasible
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

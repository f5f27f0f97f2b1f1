// Package split implements the MaxSplit routine of the paper (§IV-A,
// Definition 3): given a (sub)task that does not fit entirely on its
// candidate processor, find the largest prefix that can be assigned there
// without making any task on that processor unschedulable — leaving the
// processor with a bottleneck — and return the remainder for the next
// assignment step.
//
// Both methods run on a processor's analysis state (rta.ProcState), the
// partitioners' incremental one or a from-scratch one loaded from a subtask
// list (rta.ProcState.Load). MaxPortionState is the testing-point method
// the paper cites from [22]: it evaluates the RTA slack of each resident
// subtask at the points where the interference step functions change.
// MaxPortionBinary is the binary-search method the paper sketches
// ("performing a binary search over [0, C^k]"), kept because the
// split-ablation experiment measures it against the testing-point method.
// Both are exact on the integer time domain; the property tests check them
// against each other and against a list-level binary search.
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

// MaxPortionState returns the largest c' in [0, budget] such that a new
// load (c', t) inserted with priority index prio at its position on ps
// (below every resident whose task index is at most prio, the tie rule of
// task.Assignment.Add and rta.ProcState.PosFor) keeps its own response
// within d and every lower-priority resident schedulable. Residents with
// higher priority are unaffected by construction. It takes the max own
// load at the insertion position and minimizes it with the exact RTA slack
// of every resident below, with respect to a period-t interferer.
//
// The paper's algorithms only insert at the top (assignment in increasing
// priority order guarantees it, Lemma 2); the general position is needed
// for RM-TS phase 3, where a processor may already host a pre-assigned task
// of either priority relative to the incoming one.
//
// The interference view (including any analysis surcharge) is the state's
// reused mirror, so a probe allocates nothing. The budget and the result
// are in the state's surcharged units — callers with a per-fragment
// surcharge s pass budget+s and subtract s from the result.
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

// MaxPortionBinary is the binary-search reference for MaxPortionState, in
// the same surcharged units: it searches the largest feasible c' in
// [0, min(budget, d)], probing each candidate with the full admission check
// (ps.AdmitAt at priority index prio). Schedulability is monotone in c' (a
// larger fragment only adds interference), so the search is exact.
func MaxPortionBinary(ps *rta.ProcState, prio int, t, budget, d task.Time) task.Time {
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
		return c == 0 || ps.AdmitAt(prio, c-ps.Surcharge, t, d)
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

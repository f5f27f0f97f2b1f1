// Package partition implements the paper's partitioned multiprocessor
// scheduling algorithms with task splitting — RM-TS/light (§IV) and RM-TS
// (§V) — together with the baselines they are evaluated against: SPA1 and
// SPA2 from [16] (utilization-threshold packing that never exceeds the Liu
// & Layland bound) and strict partitioning without splitting (first-fit /
// worst-fit with exact RTA admission).
//
// All algorithms consume a task set and a processor count and produce a
// Result holding the per-processor subtask assignment. RM-TS and
// RM-TS/light admit (sub)tasks with exact response-time analysis, which is
// what lifts their average-case acceptance far above the worst-case bound;
// the SPA baselines admit by utilization threshold and therefore cannot.
package partition

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/split"
	"repro/internal/task"
)

// Instrumentation (no-ops unless obs.SetEnabled): the packing skeleton's
// decision counters, shared by the RTA-based and threshold-based
// algorithms so experiment snapshots can compare how much admission work
// each acceptance decision buys (§I's exact-test-vs-threshold argument).
var (
	cAssignAttempts = obs.NewCounter("partition.assign.attempts")
	cAssignWhole    = obs.NewCounter("partition.assign.whole")
	cSplits         = obs.NewCounter("partition.splits")
	cProcFull       = obs.NewCounter("partition.proc_full")
	cPreAssign      = obs.NewCounter("partition.preassign")
	cWindowSplits   = obs.NewCounter("partition.edf.window_splits")
	// EDF-TS window levels: exact budget searches, and levels refused
	// because even the WindowCap bounds cannot cover the demand.
	cEDFBudgetProbes = obs.NewCounter("partition.edf_budget_probes")
	cEDFBoundSkips   = obs.NewCounter("partition.edf_window_bound_skips")
)

// traceIters samples the global RTA iteration total for decision traces;
// deltas around an admission check give its cost. Only meaningful when
// metrics are enabled and the traced partitioning runs single-goroutine
// (cmd/partition -trace), which is how traces are produced.
func traceIters(tr *obs.Trace) int64 {
	if tr == nil {
		return 0
	}
	return rta.IterationsValue()
}

// traceAborts samples the global RTA abort total, so decision traces can
// mark admissions whose "no" came from the MaxIters cap rather than a
// proven deadline miss (same single-goroutine caveat as traceIters).
func traceAborts(tr *obs.Trace) int64 {
	if tr == nil {
		return 0
	}
	return rta.AbortsValue()
}

// Result is the outcome of a partitioning attempt.
type Result struct {
	// OK reports whether every task was fully assigned.
	OK bool
	// Guaranteed reports whether the producing algorithm's theory proves
	// the partitioned system schedulable. For the RTA-based algorithms
	// (RM-TS, RM-TS/light, FF/WF-RTA) this equals OK (Lemma 4); for the
	// threshold-based baselines SPA1/SPA2 it additionally requires the
	// preconditions of their utilization-bound theorems from [16], which is
	// exactly why they "never utilize more than the worst-case bound" (§I).
	Guaranteed bool
	// Assignment is the (possibly partial, when !OK) assignment produced.
	// Assignment.Set is the RM-sorted copy of the input; subtask TaskIndex
	// values refer to it.
	Assignment *task.Assignment
	// FailedTask is the RM-sorted index of the first task that could not be
	// (fully) assigned, or -1.
	FailedTask int
	// Reason describes a failure in one line; empty on success.
	Reason string
	// Cause classifies the terminal failure (CauseNone on success). Use
	// RejectionCause to fold in the guarantee dimension.
	Cause Cause
	// NumSplit is the number of tasks divided across processors.
	NumSplit int
	// NumPreAssigned is the number of heavy tasks placed by RM-TS/SPA2
	// phase 1.
	NumPreAssigned int
	// Scheduler names the per-processor runtime policy the result assumes:
	// "" or "FP" for fixed-priority (everything in this package except the
	// EDF baselines), "EDF" for the partitioned-EDF baselines. Verify
	// covers FP results; VerifyEDF covers EDF results, and the simulator
	// must be run with the matching sim.Policy.
	Scheduler string
}

// Algorithm is a partitioning algorithm (with or without task splitting).
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Partition attempts to place every task of ts onto m processors. The
	// input set is not modified; it is cloned and RM-sorted internally.
	Partition(ts task.Set, m int) *Result
	// PartitionArena is Partition drawing all working storage from a
	// caller-owned Arena. PartitionArena(ts, m, nil) is identical to
	// Partition(ts, m); with a reused arena the verdict, assignment and
	// every Result field are byte-identical (the arena only changes where
	// the memory comes from — the equivalence fuzz test pins this), and
	// the Result borrows the arena per the Arena ownership rules.
	PartitionArena(ts task.Set, m int, ar *Arena) *Result
}

// fragment is the not-yet-assigned remainder of the task currently being
// placed: remC ticks of execution, with offset ticks of worst-case
// predecessor delay already accumulated (so its synthetic deadline is
// T − offset, equation (1)).
type fragment struct {
	idx    int
	part   int
	remC   task.Time
	offset task.Time
}

func wholeFragment(idx int, t task.Task) fragment {
	// The starting offset is T − D (zero for implicit deadlines), so the
	// first fragment's synthetic deadline is the task's effective deadline
	// and later fragments shrink from there.
	return fragment{idx: idx, part: 1, remC: t.C, offset: t.T - t.Deadline()}
}

// deadline returns the fragment's synthetic deadline Δ = T − offset.
func (f fragment) deadline(t task.Task) task.Time { return t.T - f.offset }

// assignOrSplit implements the Assign routine of §IV-A on processor q:
// place the fragment entirely if exact RTA admits it; otherwise assign the
// maximal prefix MaxSplit finds (possibly empty) and report the processor
// full. It returns whether the fragment was fully placed and, if not, the
// remainder to continue with.
//
// All analysis runs on the processor's incremental state ps — the warm-
// start response cache and reused interference mirror of internal/rta —
// which must shadow asg.Procs[q] exactly (every Add here is paired with an
// Insert). ps.Surcharge carries the per-fragment overhead surcharge (see
// overhead.go); zero reproduces the paper's zero-overhead analysis.
//
// The new fragment is inserted at its RM priority position. In RM-TS/light
// and RM-TS phase 2 it is always the highest-priority subtask on q (tasks
// arrive in increasing priority order, Lemma 2); in RM-TS phase 3 a
// pre-assigned task may outrank it, which the general-position analysis
// handles, and the synthetic deadline of the next fragment is then advanced
// by the body's actual response time R rather than C (equation (1)).
func assignOrSplit(asg *task.Assignment, ps *rta.ProcState, q int, f fragment, ts task.Set, tr *obs.Trace) (placed bool, rem fragment, full bool) {
	t := ts[f.idx]
	d := f.deadline(t)
	s := ps.Surcharge
	cAssignAttempts.Inc()
	before := traceIters(tr)
	abortsBefore := traceAborts(tr)
	if tr != nil {
		ev := obs.Event{Kind: obs.EvAssignAttempt, Task: f.idx, Part: f.part, Proc: q,
			C: f.remC, T: t.T, Deadline: d}
		if s > 0 {
			ev.Note = fmt.Sprintf("surcharge %d", s)
		}
		tr.Add(ev)
	}
	// A fragment the whole-placement probe refuses goes to MaxSplit; one
	// that would take q past U = 1 gets there without any exact test.
	uq := asg.Utilization(q)
	ok, by := fitsWhole(ps, uq, f.idx, f.remC, t.T, d)
	if by == byUtilization {
		cUtilSkips.Inc()
	}
	if ok {
		sub := task.Subtask{
			TaskIndex: f.idx, Part: f.part, C: f.remC, T: t.T,
			Deadline: d, Offset: f.offset, Tail: true,
		}
		asg.Add(q, sub)
		ps.Insert(sub)
		cAssignWhole.Inc()
		if tr != nil {
			tr.Add(obs.Event{Kind: obs.EvAssigned, Task: f.idx, Part: f.part, Proc: q,
				C: f.remC, Deadline: d, RTAIters: traceIters(tr) - before,
				RTAAborted: traceAborts(tr) > abortsBefore, OK: true})
		}
		return true, fragment{}, false
	}
	portion := split.MaxPortionState(ps, f.idx, t.T, utilRoomBudget(uq, f.remC, t.T, s), d) - s
	if portion >= f.remC {
		// MaxSplit and AdmitAt implement the same exact criterion;
		// disagreement means a broken analysis, not bad input.
		panic("partition: MaxSplit admits a fragment the full RTA rejected")
	}
	if portion > 0 {
		body := task.Subtask{
			TaskIndex: f.idx, Part: f.part, C: portion, T: t.T,
			Deadline: d, Offset: f.offset, Tail: false,
		}
		asg.Add(q, body)
		pos := ps.Insert(body)
		r, ok := ps.ResponseAt(pos, d)
		if !ok {
			panic("partition: freshly split body fragment is unschedulable")
		}
		cSplits.Inc()
		if tr != nil {
			tr.Add(obs.Event{Kind: obs.EvSplit, Task: f.idx, Part: f.part, Proc: q,
				C: f.remC, Portion: portion, Remainder: f.remC - portion, Response: r,
				RTAIters: traceIters(tr) - before, RTAAborted: traceAborts(tr) > abortsBefore})
		}
		f = fragment{idx: f.idx, part: f.part + 1, remC: f.remC - portion, offset: f.offset + r}
	} else if tr != nil {
		note := "MaxSplit found no admissible prefix"
		if s > 0 {
			note = "surcharged MaxSplit found no admissible prefix"
		}
		tr.Add(obs.Event{Kind: obs.EvReject, Task: f.idx, Part: f.part, Proc: q,
			C: f.remC, Deadline: d, RTAIters: traceIters(tr) - before,
			RTAAborted: traceAborts(tr) > abortsBefore, Note: note})
	}
	cProcFull.Inc()
	if tr != nil {
		tr.Add(obs.Event{Kind: obs.EvProcFull, Task: f.idx, Part: f.part, Proc: q})
	}
	return false, f, true
}

// Verify independently re-checks a successful Result: structural invariants
// of the assignment (task.Assignment.Validate), exact RTA of every subtask
// against its synthetic deadline, and consistency of the synthetic
// deadlines with the body fragments' actual response times
// (Δ^{k+1} ≤ T − Σ_{l≤k} R^l). A nil error means the partitioned system
// provably meets all deadlines (Lemma 4's argument).
func Verify(res *Result) error { return VerifyWithSurcharge(res, 0) }

// requireImplicit fails algorithms whose theory only covers the
// implicit-deadline L&L model (the SPA thresholds, the bound-based
// admissions, the EDF utilization test, global scheduling bounds).
func requireImplicit(sorted task.Set, asg *task.Assignment, who string) *Result {
	if sorted.Implicit() {
		return nil
	}
	res := &Result{Assignment: asg}
	return failWith(res, CauseModelMismatch, -1,
		who+" requires implicit deadlines (D = T); use the RTA-based algorithms for constrained deadlines")
}

// refuseSurcharge fails res, and reports true, when the per-fragment
// surcharge s leaves the model's domain (s < 0) or some task cannot meet
// its deadline under it even alone on a processor (C + s > T; splitting
// only multiplies the surcharge).
func refuseSurcharge(res *Result, sorted task.Set, s task.Time, tr *obs.Trace) bool {
	if s < 0 {
		failWith(res, CauseInvalidInput, -1, fmt.Sprintf("negative surcharge %d", s))
		traceFail(tr, -1, res.Reason)
		return true
	}
	for i, t := range sorted {
		if s > t.T-t.C { // C + s > T without overflow for any s
			failWith(res, CauseSurchargeInfeasible, i,
				"τ"+strconv.Itoa(i)+" cannot meet its deadline under the overhead surcharge (C+s > T)")
			traceFail(tr, i, res.Reason)
			return true
		}
	}
	return false
}

package partition

import (
	"fmt"
	"strconv"

	"repro/internal/bounds"
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/task"
)

// RMTSLight is the paper's first algorithm (§IV): RM partitioning with task
// splitting, exact RTA admission, worst-fit processor selection (minimal
// assigned utilization), tasks assigned in increasing priority order.
//
// For light task sets (every U_i ≤ Θ/(1+Θ), Definition 1) it achieves any
// deflatable parametric utilization bound Λ(τ) as a normalized utilization
// bound (Theorem 8); for arbitrary sets a successful partitioning is still
// always schedulable (Lemma 4), only the worst-case bound claim is lost.
type RMTSLight struct {
	// Surcharge enables overhead-aware admission: every fragment term in
	// every RTA evaluation is inflated by this many ticks (see
	// overhead.go). Zero reproduces the paper's zero-overhead analysis.
	Surcharge task.Time
	// Trace, when non-nil, records every partitioning decision (assign
	// attempts, RTA outcomes, MaxSplit choices, processors filling up). Nil
	// costs one branch per decision point.
	Trace *obs.Trace
}

// Name implements Algorithm.
func (RMTSLight) Name() string { return "RM-TS/light" }

// Partition implements Algorithm.
func (a RMTSLight) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements ArenaPartitioner.
func (a RMTSLight) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	if ar == nil {
		ar = new(Arena)
	}
	sorted, asg, fail := ar.prepare(ts, m)
	if fail != nil {
		return fail
	}
	full := boolBuf(&ar.full, m)
	states := ar.procStates(m, a.Surcharge)
	res := ar.result("")
	tr := a.Trace
	if i := surchargeFeasible(sorted, a.Surcharge); i >= 0 {
		failWith(res, CauseSurchargeInfeasible, i,
			"τ"+strconv.Itoa(i)+" cannot meet its deadline under the overhead surcharge (C+s > T)")
		traceFail(tr, i, res.Reason)
		return res
	}
	// Increasing priority order: lowest priority (largest index) first.
	wf := ar.worstFit(asg, nil, full)
	for i := len(sorted) - 1; i >= 0; i-- {
		f, placed := packWorstFit(asg, states, wf, full, wholeFragment(i, sorted[i]), sorted, tr)
		if !placed {
			failWith(res, CauseMaxSplitExhausted, i,
				"all processors full while assigning τ"+strconv.Itoa(i))
			traceFail(tr, i, res.Reason)
			return res
		}
		if f.part > 1 {
			res.NumSplit++
		}
	}
	res.OK = true
	res.Guaranteed = true
	traceDone(tr, res)
	return res
}

// packWorstFit is the packing loop RM-TS/light and RM-TS phase 2 share: it
// places fragment f on the live processor of wf with the least assigned
// utilization, splitting on overflow (assignOrSplit) and marking
// processors full, until f is placed or every processor of wf is full. It
// returns the last fragment handled — placed, or the remainder to carry on
// when placed is false.
func packWorstFit(asg *task.Assignment, states []rta.ProcState, wf *wfTree, full []bool, f fragment, sorted task.Set, tr *obs.Trace) (last fragment, placed bool) {
	for {
		q := wf.pick()
		if q < 0 {
			return f, false
		}
		placed, rem, becameFull := assignOrSplit(asg, &states[q], q, f, sorted, tr)
		if becameFull {
			full[q] = true
		}
		wf.update(q, asg.Utilization(q), !full[q])
		if placed {
			return f, true
		}
		f = rem
	}
}

// traceFail records a terminal failure event (no-op for nil traces).
func traceFail(tr *obs.Trace, failed int, reason string) {
	if tr != nil {
		tr.Add(obs.Event{Kind: obs.EvFail, Task: failed, Proc: -1, Note: reason})
	}
}

// traceDone records a terminal success event (no-op for nil traces).
func traceDone(tr *obs.Trace, res *Result) {
	if tr != nil {
		tr.Add(obs.Event{Kind: obs.EvDone, Task: -1, Proc: -1, OK: true,
			Note: fmt.Sprintf("%d split, %d pre-assigned", res.NumSplit, res.NumPreAssigned)})
	}
}

// tracePhase records a phase boundary (no-op for nil traces).
func tracePhase(tr *obs.Trace, note string) {
	if tr != nil {
		tr.Add(obs.Event{Kind: obs.EvPhase, Task: -1, Proc: -1, Note: note})
	}
}

// RMTS is the paper's general algorithm (§V): a pre-assignment phase places
// heavy tasks whose lower-priority workload is small enough (condition (8))
// onto dedicated processors; the remaining tasks are packed onto the normal
// processors exactly as in RM-TS/light; leftovers fill the pre-assigned
// processors first-fit, lowest-priority pre-assigned task first.
//
// For any task set it achieves the bound min(Λ(τ), 2Θ/(1+Θ)), where Λ is
// the deflatable PUB the instance is configured with.
type RMTS struct {
	// PUB supplies Λ(τ) for the pre-assignment condition. Nil defaults to
	// the Liu & Layland bound, which makes the pre-assignment identical in
	// spirit to SPA2's while keeping exact-RTA packing.
	PUB bounds.PUB
	// Surcharge enables overhead-aware admission (see overhead.go); zero
	// reproduces the paper's zero-overhead analysis.
	Surcharge task.Time
	// Trace, when non-nil, records every partitioning decision including
	// the pre-assignment phase. Nil costs one branch per decision point.
	Trace *obs.Trace
}

// NewRMTS returns an RM-TS instance using p for the pre-assignment
// condition (nil for the L&L default).
func NewRMTS(p bounds.PUB) *RMTS { return &RMTS{PUB: p} }

// Name implements Algorithm.
func (a *RMTS) Name() string { return "RM-TS" }

// Lambda returns the effective bound min(Λ(τ), 2Θ/(1+Θ)) this instance
// targets for the given set (§V).
func (a *RMTS) Lambda(ts task.Set) float64 {
	p := a.PUB
	if p == nil {
		p = bounds.LiuLayland{}
	}
	return bounds.EffectiveRMTS(p, ts)
}

// LightTwin reports whether RM-TS partitions ts exactly as RM-TS/light
// does, and returns that twin. It holds when every task is light
// (U_i ≤ Θ/(1+Θ), the float test phase 1 applies first): phase 1 then
// pre-assigns nothing, phase 2 is RM-TS/light's packing loop over every
// processor, and phase 3 has no processors, so a failure is
// MaxSplitExhausted. Every Result field and the assignment are the twin's.
// The PUB does not matter: Λ only enters condition (8), for heavy tasks.
func (a *RMTS) LightTwin(ts task.Set) (RMTSLight, bool) {
	thr := bounds.LightThresholdFor(len(ts))
	for _, t := range ts {
		if !(t.Utilization() <= thr) {
			return RMTSLight{}, false
		}
	}
	return RMTSLight{Surcharge: a.Surcharge, Trace: a.Trace}, true
}

// Partition implements Algorithm.
func (a *RMTS) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements ArenaPartitioner.
func (a *RMTS) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	if ar == nil {
		ar = new(Arena)
	}
	sorted, asg, fail := ar.prepare(ts, m)
	if fail != nil {
		return fail
	}
	n := len(sorted)
	lightThr := bounds.LightThresholdFor(n)
	p := a.PUB
	if p == nil {
		p = bounds.LiuLayland{}
	}
	lambda := bounds.EffectiveRMTSScratch(p, sorted, &ar.bsc)
	res := ar.result("")
	tr := a.Trace
	if i := surchargeFeasible(sorted, a.Surcharge); i >= 0 {
		failWith(res, CauseSurchargeInfeasible, i,
			"τ"+strconv.Itoa(i)+" cannot meet its deadline under the overhead surcharge (C+s > T)")
		traceFail(tr, i, res.Reason)
		return res
	}

	full := boolBuf(&ar.full, m)
	states := ar.procStates(m, a.Surcharge)
	normal := boolBuf(&ar.normal, m)
	for q := range normal {
		normal[q] = true
	}
	preProcs := ar.preProcs[:0] // pre-assigned processors in assignment order

	// Suffix utilizations: suffix[i] = Σ_{j>i} U_j.
	suffix := floatBuf(&ar.suffix, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + sorted[i].Utilization()
	}

	// Phase 1: pre-assignment, in decreasing priority order (highest
	// priority first). A heavy task is pre-assigned when condition (8)
	// holds: Σ_{j>i} U_j ≤ (|P(τ_i)|−1)·Λ(τ), with P(τ_i) the processors
	// still normal at this point. Tasks with U_i > Λ(τ) are outside the
	// model's assumption (§V, footnote 5: run them on a dedicated processor
	// each), so they are pre-assigned unconditionally while processors
	// remain — with exact-RTA filling in phase 3 this only improves
	// average-case acceptance and never invalidates a successful result.
	tracePhase(tr, "phase 1: pre-assignment of heavy tasks (condition (8))")
	normalCount := m
	pre := boolBuf(&ar.pre, n)
	for i := 0; i < n; i++ {
		u := sorted[i].Utilization()
		if u <= lightThr {
			continue
		}
		if normalCount == 0 {
			break
		}
		if suffix[i+1] <= float64(normalCount-1)*lambda || u > lambda {
			q := -1
			for cand := 0; cand < m; cand++ {
				if normal[cand] {
					q = cand
					break
				}
			}
			asg.Add(q, task.Whole(i, sorted[i]))
			states[q].Insert(task.Whole(i, sorted[i]))
			asg.PreAssigned[q] = i
			normal[q] = false
			preProcs = append(preProcs, q)
			pre[i] = true
			normalCount--
			res.NumPreAssigned++
			cPreAssign.Inc()
			if tr != nil {
				trigger := "condition (8)"
				if u > lambda {
					trigger = "U_i > Λ(τ)"
				}
				tr.Add(obs.Event{Kind: obs.EvPreAssign, Task: i, Part: 1, Proc: q,
					C: sorted[i].C, T: sorted[i].T,
					Note: fmt.Sprintf("%s; U_i=%.3f, Λ=%.3f, suffix U=%.3f", trigger, u, lambda, suffix[i+1])})
			}
		}
	}

	// Phase 2: remaining tasks onto normal processors, exactly as
	// RM-TS/light (increasing priority order, worst fit, split on
	// overflow). A fragment that exhausts the normal processors carries
	// over into phase 3 with its offset state intact.
	tracePhase(tr, "phase 2: worst-fit packing on normal processors")
	ar.preProcs = preProcs
	nextPre := len(preProcs) - 1 // phase 3 cursor: largest index first
	// phase3Assign places the carried fragment first-fit on the
	// pre-assigned processors and reports the final committed fragment's
	// part number (the task's total fragment count).
	phase3Assign := func(f fragment) (bool, int) {
		for {
			for nextPre >= 0 && full[preProcs[nextPre]] {
				nextPre--
			}
			if nextPre < 0 {
				return false, f.part
			}
			q := preProcs[nextPre]
			placed, rem, becameFull := assignOrSplit(asg, &states[q], q, f, sorted, tr)
			if becameFull {
				full[q] = true
			}
			if placed {
				return true, f.part
			}
			f = rem
		}
	}

	wf := ar.worstFit(asg, normal, full)
	for i := n - 1; i >= 0; i-- {
		if pre[i] {
			continue
		}
		f, placed := packWorstFit(asg, states, wf, full, wholeFragment(i, sorted[i]), sorted, tr)
		// Phase 3: pre-assigned processors, first-fit from the processor
		// hosting the lowest-priority pre-assigned task (largest index).
		if !placed {
			if tr != nil {
				// Format only when tracing: this line is on the hot partition
				// path and the argument would otherwise be built per call.
				tracePhase(tr, fmt.Sprintf("phase 3: τ%d overflows onto pre-assigned processors", i))
			}
			ok, finalPart := phase3Assign(f)
			if !ok {
				cause := CauseMaxSplitExhausted
				if res.NumPreAssigned == m {
					// Every processor hosts a pre-assigned heavy task; the
					// packing never had a normal processor to work with.
					cause = CausePreAssignExhausted
				}
				failWith(res, cause, i,
					"all processors full while assigning τ"+strconv.Itoa(i))
				traceFail(tr, i, res.Reason)
				return res
			}
			f.part = finalPart
		}
		// A fragment's part number increments exactly once per committed
		// body, so the final placed fragment's part is the task's fragment
		// count — the alloc-free equivalent of len(asg.Subtasks(i)) > 1.
		if f.part > 1 {
			res.NumSplit++
		}
	}
	res.OK = true
	res.Guaranteed = true
	traceDone(tr, res)
	return res
}

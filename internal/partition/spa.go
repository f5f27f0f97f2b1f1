package partition

import (
	"fmt"
	"strconv"

	"repro/internal/bounds"
	"repro/internal/obs"
	"repro/internal/task"
)

// utilEps absorbs float rounding when comparing utilization sums against
// the Θ threshold; utilizations are ratios of int64s, so accumulated error
// is far below this. An admitting comparison subtracts it (sum ≤ bound −
// utilEps): a set above the bound by less than the margin must not pass
// without an exact test.
const utilEps = 1e-9

// SPA1 is the light-task algorithm of [16] ("Fixed-Priority Multiprocessor
// Scheduling with Liu & Layland's Utilization Bound"): the same increasing-
// priority, worst-fit, split-on-overflow skeleton as RM-TS/light, but
// admission is the utilization threshold Θ(N) = N(2^{1/N}−1) instead of
// exact RTA — a processor accepts load only while its assigned utilization
// stays at or below Θ, and splitting fills it to exactly Θ.
//
// Its guarantee ([16]) covers light task sets with U_M(τ) ≤ Θ(τ); the
// Result's Guaranteed field reflects that. The consequence the paper
// criticizes (§I) is structural: SPA1 can never utilize a processor beyond
// Θ, no matter how benign the workload.
type SPA1 struct {
	// Trace, when non-nil, records every threshold-admission decision —
	// note the RTAIters field of its events stays 0: threshold packing
	// spends no response-time analysis per decision, which is exactly the
	// cost/benefit contrast the paper draws (§I).
	Trace *obs.Trace
}

// Name implements Algorithm.
func (SPA1) Name() string { return "SPA1" }

// Partition implements Algorithm.
func (a SPA1) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements ArenaPartitioner.
func (a SPA1) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	if ar == nil {
		ar = new(Arena)
	}
	sorted, asg, fail := ar.prepare(ts, m)
	if fail != nil {
		return fail
	}
	tr := a.Trace
	if res := requireImplicit(sorted, asg, "SPA1"); res != nil {
		traceFail(tr, -1, res.Reason)
		return res
	}
	theta := bounds.LL(len(sorted))
	res := ar.result("")
	full := boolBuf(&ar.full, m)
	wf := ar.worstFit(asg, nil, full)
	for i := len(sorted) - 1; i >= 0; i-- {
		f := wholeFragment(i, sorted[i])
		for {
			q := wf.pick()
			if q < 0 {
				failWith(res, CauseThresholdExhausted, i,
					"all processors at the Θ threshold while assigning τ"+strconv.Itoa(i))
				traceFail(tr, i, res.Reason)
				return res
			}
			placed, rem, becameFull := thresholdAssign(asg, q, f, sorted, theta, tr)
			if becameFull {
				full[q] = true
			}
			wf.update(q, asg.Utilization(q), !full[q])
			if placed {
				break
			}
			f = rem
		}
		if f.part > 1 {
			res.NumSplit++
		}
	}
	res.OK = true
	lightThr := bounds.LightThresholdFor(len(sorted))
	res.Guaranteed = sorted.IsLight(lightThr) &&
		sorted.NormalizedUtilization(m) <= theta+utilEps
	traceDone(tr, res)
	return res
}

// thresholdAssign is the SPA counterpart of assignOrSplit: admit the
// fragment if U(P_q) + U stays within threshold; otherwise split off
// exactly the utilization that fills the processor to the threshold.
// Synthetic deadlines use the C-based bookkeeping of [16] (body subtasks
// have the highest priority on their hosts in SPA1/SPA2, so R = C).
func thresholdAssign(asg *task.Assignment, q int, f fragment, ts task.Set, threshold float64, tr *obs.Trace) (placed bool, rem fragment, fullQ bool) {
	t := ts[f.idx]
	d := f.deadline(t)
	cAssignAttempts.Inc()
	if tr != nil {
		tr.Add(obs.Event{Kind: obs.EvAssignAttempt, Task: f.idx, Part: f.part, Proc: q,
			C: f.remC, T: t.T, Deadline: d, Note: "threshold admission"})
	}
	room := threshold - asg.Utilization(q)
	u := float64(f.remC) / float64(t.T)
	if u <= room+utilEps && f.remC <= d {
		asg.Add(q, task.Subtask{
			TaskIndex: f.idx, Part: f.part, C: f.remC, T: t.T,
			Deadline: d, Offset: f.offset, Tail: true,
		})
		cAssignWhole.Inc()
		if tr != nil {
			tr.Add(obs.Event{Kind: obs.EvAssigned, Task: f.idx, Part: f.part, Proc: q,
				C: f.remC, Deadline: d, OK: true,
				Note: fmt.Sprintf("U=%.3f ≤ room %.3f", u, room)})
		}
		return true, fragment{}, false
	}
	portion := task.Time(room * float64(t.T))
	if portion > f.remC-1 {
		portion = f.remC - 1
	}
	if portion > d {
		portion = d
	}
	if portion > 0 {
		asg.Add(q, task.Subtask{
			TaskIndex: f.idx, Part: f.part, C: portion, T: t.T,
			Deadline: d, Offset: f.offset, Tail: false,
		})
		cSplits.Inc()
		if tr != nil {
			tr.Add(obs.Event{Kind: obs.EvSplit, Task: f.idx, Part: f.part, Proc: q,
				C: f.remC, Portion: portion, Remainder: f.remC - portion, Response: portion,
				Note: "split fills the processor to Θ"})
		}
		f = fragment{idx: f.idx, part: f.part + 1, remC: f.remC - portion, offset: f.offset + portion}
	} else if tr != nil {
		tr.Add(obs.Event{Kind: obs.EvReject, Task: f.idx, Part: f.part, Proc: q,
			C: f.remC, Deadline: d, Note: "no room below the Θ threshold"})
	}
	cProcFull.Inc()
	if tr != nil {
		tr.Add(obs.Event{Kind: obs.EvProcFull, Task: f.idx, Part: f.part, Proc: q})
	}
	return false, f, true
}

// SPA2 is the general algorithm of [16]: SPA1 extended with a
// pre-assignment phase for heavy tasks (U_i > Θ/(1+Θ)) satisfying
// Σ_{j>i} U_j ≤ (|P(τ_i)|−1)·Θ, mirroring RM-TS's structure but with the
// utilization threshold in place of exact RTA everywhere. Guaranteed for
// any task set with U_M(τ) ≤ Θ(τ).
type SPA2 struct {
	// Trace, when non-nil, records every threshold-admission decision (see
	// the SPA1.Trace note on RTAIters staying 0).
	Trace *obs.Trace
}

// Name implements Algorithm.
func (SPA2) Name() string { return "SPA2" }

// Partition implements Algorithm.
func (a SPA2) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements ArenaPartitioner.
func (a SPA2) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	if ar == nil {
		ar = new(Arena)
	}
	sorted, asg, fail := ar.prepare(ts, m)
	if fail != nil {
		return fail
	}
	tr := a.Trace
	if res := requireImplicit(sorted, asg, "SPA2"); res != nil {
		traceFail(tr, -1, res.Reason)
		return res
	}
	n := len(sorted)
	theta := bounds.LL(n)
	lightThr := bounds.LightThresholdFor(n)
	res := ar.result("")

	full := boolBuf(&ar.full, m)
	normal := boolBuf(&ar.normal, m)
	for q := range normal {
		normal[q] = true
	}
	preProcs := ar.preProcs[:0]

	suffix := floatBuf(&ar.suffix, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + sorted[i].Utilization()
	}

	// Phase 1: pre-assign qualifying heavy tasks, decreasing priority
	// order, lowest-index normal processor.
	tracePhase(tr, "phase 1: pre-assignment of heavy tasks (Θ condition)")
	normalCount := m
	pre := boolBuf(&ar.pre, n)
	for i := 0; i < n; i++ {
		u := sorted[i].Utilization()
		if u <= lightThr || normalCount == 0 {
			continue
		}
		if suffix[i+1] <= float64(normalCount-1)*theta+utilEps {
			q := -1
			for cand := 0; cand < m; cand++ {
				if normal[cand] {
					q = cand
					break
				}
			}
			asg.Add(q, task.Whole(i, sorted[i]))
			asg.PreAssigned[q] = i
			normal[q] = false
			preProcs = append(preProcs, q)
			pre[i] = true
			normalCount--
			res.NumPreAssigned++
			cPreAssign.Inc()
			if tr != nil {
				tr.Add(obs.Event{Kind: obs.EvPreAssign, Task: i, Part: 1, Proc: q,
					C: sorted[i].C, T: sorted[i].T,
					Note: fmt.Sprintf("U_i=%.3f, Θ=%.3f, suffix U=%.3f", u, theta, suffix[i+1])})
			}
		}
	}

	// Phases 2 and 3: threshold packing on normal processors, then
	// first-fit filling of pre-assigned processors from the largest index.
	tracePhase(tr, "phase 2/3: threshold packing (normal, then pre-assigned processors)")
	ar.preProcs = preProcs
	nextPre := len(preProcs) - 1
	wf := ar.worstFit(asg, normal, full)
	for i := n - 1; i >= 0; i-- {
		if pre[i] {
			continue
		}
		f := wholeFragment(i, sorted[i])
		placedWhole := false
		for !placedWhole {
			q := wf.pick()
			if q < 0 {
				break
			}
			var becameFull bool
			placedWhole, f, becameFull = spaStep(asg, q, f, sorted, theta, tr)
			if becameFull {
				full[q] = true
			}
			wf.update(q, asg.Utilization(q), !full[q])
		}
		for !placedWhole {
			for nextPre >= 0 && full[preProcs[nextPre]] {
				nextPre--
			}
			if nextPre < 0 {
				cause := CauseThresholdExhausted
				if res.NumPreAssigned == m {
					cause = CausePreAssignExhausted
				}
				failWith(res, cause, i,
					"all processors at the Θ threshold while assigning τ"+strconv.Itoa(i))
				traceFail(tr, i, res.Reason)
				return res
			}
			q := preProcs[nextPre]
			var becameFull bool
			placedWhole, f, becameFull = spaStep(asg, q, f, sorted, theta, tr)
			if becameFull {
				full[q] = true
			}
		}
		if f.part > 1 {
			res.NumSplit++
		}
	}
	res.OK = true
	res.Guaranteed = sorted.NormalizedUtilization(m) <= theta+utilEps
	traceDone(tr, res)
	return res
}

func spaStep(asg *task.Assignment, q int, f fragment, ts task.Set, theta float64, tr *obs.Trace) (bool, fragment, bool) {
	placed, rem, becameFull := thresholdAssign(asg, q, f, ts, theta, tr)
	if placed {
		return true, f, becameFull
	}
	return false, rem, becameFull
}

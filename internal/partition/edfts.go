package partition

import (
	"fmt"

	"repro/internal/edfa"
	"repro/internal/obs"
	"repro/internal/task"
)

// EDFTS is an EDF counterpart of RM-TS in the spirit of the EDF-based
// splitting algorithms the paper cites as the 65%-bound state of the art
// [17] (window-based semi-partitioning à la EDF-WM): tasks are placed
// whole first-fit under the exact processor-demand test (internal/edfa);
// a task that fits nowhere is split into k fragments with equal deadline
// windows w = D/k, each fragment an independent sporadic demand source
// (C_i, T, w) on its processor, with fragment i released (at the latest)
// at (i−1)·w after the job's release.
//
// Admission is the exact QPA demand test, so — like RM-TS versus SPA —
// this comparator does not stop at a utilization bound; it carries no
// worst-case bound claim (the heuristic window split forfeits the 65%
// analysis) but every accepted set is provably schedulable, which
// VerifyEDF re-establishes and the EDF simulator confirms. Constrained
// deadlines are supported throughout.
type EDFTS struct {
	// Trace, when non-nil, records placement and window-split decisions.
	Trace *obs.Trace
}

// Name implements Algorithm.
func (EDFTS) Name() string { return "EDF-TS" }

// Partition implements Algorithm.
func (a EDFTS) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements ArenaPartitioner.
func (a EDFTS) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	if ar == nil {
		ar = new(Arena)
	}
	sorted, asg, fail := ar.prepare(ts, m)
	if fail != nil {
		return fail
	}
	tr := a.Trace
	res := ar.result("EDF")

	// EDF-WM considers tasks in decreasing utilization order.
	idxs := ar.taskOrder(sorted, DecreasingUtilization)

	// Incremental demand mirror: the per-processor []edfa.Demand view is
	// maintained across placements instead of rebuilt from asg.Procs[q] on
	// every probe (the EDF counterpart of rta.ProcState's interference
	// mirror), and probes run on a single reused scratch buffer.
	demands := ar.demandsBuf(m)

	for _, i := range idxs {
		t := sorted[i]
		d := t.Deadline()
		// Whole placement, first fit.
		placed := false
		for q := 0; q < m; q++ {
			cAssignAttempts.Inc()
			scratch := append(ar.scratch[:0], demands[q]...)
			scratch = append(scratch, edfa.Demand{C: t.C, T: t.T, D: d})
			ar.scratch = scratch
			if edfa.Schedulable(scratch) {
				edfAdd(asg, demands, q, task.Whole(i, t))
				cAssignWhole.Inc()
				if tr != nil {
					tr.Add(obs.Event{Kind: obs.EvAssigned, Task: i, Part: 1, Proc: q,
						C: t.C, Deadline: d, OK: true, Note: "QPA demand test"})
				}
				placed = true
				break
			} else if tr != nil {
				tr.Add(obs.Event{Kind: obs.EvReject, Task: i, Part: 1, Proc: q,
					C: t.C, Deadline: d, Note: "QPA demand test"})
			}
		}
		if placed {
			continue
		}
		// Window split: try k = 2..m equal windows w = D/k; greedily take
		// the largest per-processor budgets until the demand is covered.
		if !splitByWindows(ar, asg, demands, i, t, m, tr) {
			failWith(res, CauseDemandOverload, i,
				fmt.Sprintf("no window split fits τ%d (demand test)", i))
			traceFail(tr, i, res.Reason)
			return res
		}
		res.NumSplit++
		cWindowSplits.Inc()
	}
	res.OK = true
	res.Guaranteed = true
	traceDone(tr, res)
	return res
}

// edfAdd commits a fragment to both the assignment and the incremental
// demand mirror.
func edfAdd(asg *task.Assignment, demands [][]edfa.Demand, q int, s task.Subtask) {
	asg.Add(q, s)
	demands[q] = append(demands[q], edfa.Demand{C: s.C, T: s.T, D: s.Deadline})
}

// splitByWindows attempts the EDF-WM style split of task i; it returns
// whether fragments covering the full demand were assigned. Committed
// fragments update both the assignment and the demand mirror. The fragments
// go to the processors with the largest budgets for the window, in
// (budget desc, index asc) order — a total order, so the choice is
// deterministic.
//
// Windows shrink as k grows, and a shorter deadline only adds demand, so
// processor q's budget for window w_k caps its budget for w_{k+1}, and a
// processor whose budget reached 0 is not probed again. An exact budget
// costs QPA walks, so each level first bounds every budget with
// edfa.WindowCap and computes exact ones only where they can change the
// split (selectWindows); a bound left in budget[q] is still a valid cap
// for the next window (DESIGN.md, "EDF-TS window levels by lazy
// selection").
func splitByWindows(ar *Arena, asg *task.Assignment, demands [][]edfa.Demand, i int, t task.Task, m int, tr *obs.Trace) bool {
	d := t.Deadline()
	base := t.T - d
	budget := ar.budgetBuf(m, t.C)
	for k := task.Time(2); k <= task.Time(m); k++ {
		w := d / k
		if w < 1 {
			break
		}
		caps := ar.caps[:0]
		for q := 0; q < m; q++ {
			if budget[q] == 0 {
				continue
			}
			budget[q] = edfa.WindowCap(demands[q], t.T, w, budget[q])
			if budget[q] > 0 {
				caps = append(caps, edfCap{q: q, c: budget[q]})
			}
		}
		ar.caps = caps
		for a := 1; a < len(caps); a++ {
			x := caps[a]
			b := a - 1
			for b >= 0 && x.before(caps[b]) {
				caps[b+1] = caps[b]
				b--
			}
			caps[b+1] = x
		}
		if reach(caps, 0, int(k)) < t.C {
			cEDFBoundSkips.Inc()
			continue // even the bounds cannot cover the demand; widen the split
		}
		var use int
		if caps, use = selectWindows(ar, caps, demands, budget, t, w, int(k)); use == 0 {
			continue // k windows cannot cover the demand; widen the split
		}
		// Assign fragments: part i gets window [(i−1)w, i·w].
		remaining := t.C
		for part := 1; part <= use; part++ {
			c := caps[part-1].c
			if c > remaining {
				c = remaining
			}
			offset := base + task.Time(part-1)*w
			edfAdd(asg, demands, caps[part-1].q, task.Subtask{
				TaskIndex: i, Part: part, C: c, T: t.T,
				Deadline: w, Offset: offset, Tail: part == use || remaining == c,
			})
			if tr != nil {
				tr.Add(obs.Event{Kind: obs.EvSplit, Task: i, Part: part, Proc: caps[part-1].q,
					C: t.C, Portion: c, Remainder: remaining - c, Deadline: w,
					Note: fmt.Sprintf("window %d of %d (w=%d)", part, k, w)})
			}
			remaining -= c
			if remaining == 0 {
				break
			}
		}
		if remaining != 0 {
			panic("partition: EDF-TS window accounting broke")
		}
		return true
	}
	return false
}

// selectWindows takes the fragments' processors for window w from caps,
// which holds one entry per live processor keyed by an upper bound on its
// budget and is sorted by edfCap.before. It repeatedly looks at the first
// entry not yet taken: a bound is replaced by the exact budget (one
// MaxAdditionalDemandScratch call, also stored in budget) and moved back
// into order, and an exact budget is taken. Every other entry's exact
// budget is at most its key, so a taken entry is the next one of the
// (budget desc, index asc) order over exact budgets. It returns caps
// (processors whose exact budget is 0 removed) and the number of entries
// taken, or 0 when at most k of them cannot cover t.C.
func selectWindows(ar *Arena, caps []edfCap, demands [][]edfa.Demand, budget []task.Time, t task.Task, w task.Time, k int) ([]edfCap, int) {
	var total task.Time
	use := 0
	for use < len(caps) && use < k && total < t.C {
		x := caps[use]
		if x.exact {
			total += x.c
			use++
			continue
		}
		if reach(caps, use, k-use)+total < t.C {
			return caps, 0
		}
		x.c, ar.scratch = edfa.MaxAdditionalDemandScratch(demands[x.q], t.T, w, x.c, ar.scratch)
		x.exact = true
		budget[x.q] = x.c
		cEDFBudgetProbes.Inc()
		if x.c == 0 {
			caps = append(caps[:use], caps[use+1:]...)
			continue
		}
		b := use
		for b+1 < len(caps) && caps[b+1].before(x) {
			caps[b] = caps[b+1]
			b++
		}
		caps[b] = x
	}
	if total < t.C {
		return caps, 0
	}
	return caps, use
}

// reach returns the sum of the first n keys of caps from index from on:
// the most the next n fragments can carry.
func reach(caps []edfCap, from, n int) task.Time {
	var sum task.Time
	for _, x := range caps[from:min(from+n, len(caps))] {
		sum += x.c
	}
	return sum
}

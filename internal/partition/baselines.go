package partition

import (
	"fmt"
	"strconv"

	"repro/internal/bounds"
	"repro/internal/obs"
	"repro/internal/task"
)

// FitOrder selects the order in which strict (non-splitting) partitioners
// consider tasks.
type FitOrder int

const (
	// DecreasingUtilization considers heavy tasks first — the classic
	// bin-packing heuristic order.
	DecreasingUtilization FitOrder = iota
	// IncreasingPriority considers tasks from the longest period upwards,
	// matching the splitting algorithms' order.
	IncreasingPriority
	// DecreasingPriority considers tasks from the shortest period
	// downwards.
	DecreasingPriority
)

func (o FitOrder) String() string {
	switch o {
	case DecreasingUtilization:
		return "DU"
	case IncreasingPriority:
		return "IP"
	case DecreasingPriority:
		return "DP"
	default:
		return fmt.Sprintf("FitOrder(%d)", int(o))
	}
}

// FirstFitRTA is strict partitioned RM (no task splitting): each task is
// placed whole on the first processor whose resident tasks — and the
// newcomer — all pass exact RTA. It represents the pre-task-splitting state
// of the art the paper contrasts against (its worst-case utilization bound
// cannot exceed 50%, the bin-packing limit, §I), while its average case is
// strong thanks to RTA admission.
type FirstFitRTA struct {
	// Order picks the task consideration order; zero value is
	// DecreasingUtilization.
	Order FitOrder
	// Trace, when non-nil, records every placement decision.
	Trace *obs.Trace
}

// Name implements Algorithm.
func (a FirstFitRTA) Name() string { return "P-RM-FF(" + a.Order.String() + ")" }

// Partition implements Algorithm.
func (a FirstFitRTA) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements Algorithm.
func (a FirstFitRTA) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	return fitPartitionAdmit(ts, m, a.Order, false, AdmitRTA, a.Trace, ar)
}

// WorstFitRTA is strict partitioned RM with worst-fit (minimum assigned
// utilization) processor selection and exact RTA admission.
type WorstFitRTA struct {
	// Order picks the task consideration order; zero value is
	// DecreasingUtilization.
	Order FitOrder
	// Trace, when non-nil, records every placement decision.
	Trace *obs.Trace
}

// Name implements Algorithm.
func (a WorstFitRTA) Name() string { return "P-RM-WF(" + a.Order.String() + ")" }

// Partition implements Algorithm.
func (a WorstFitRTA) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements Algorithm.
func (a WorstFitRTA) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	return fitPartitionAdmit(ts, m, a.Order, true, AdmitRTA, a.Trace, ar)
}

// fitOrder returns the processor probe order of the strict partitioners
// and the online engine in *buf: index order for first fit; for worst fit,
// ascending util(q) with ties by index (a stable insertion sort, the same
// permutation sort.SliceStable gives).
func fitOrder(buf *[]int, m int, worst bool, util func(int) float64) []int {
	out := intBuf(buf, m)
	for q := range out {
		out[q] = q
	}
	for i := 1; worst && i < m; i++ {
		q := out[i]
		u := util(q)
		j := i - 1
		for j >= 0 && util(out[j]) > u {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = q
	}
	return out
}

// Admission selects the uniprocessor schedulability test a strict
// partitioner uses to accept a whole task on a processor. The three tests
// form a strictness hierarchy — RTA (exact) accepts everything Hyperbolic
// accepts, which accepts everything the L&L utilization test accepts —
// letting the ablation experiment isolate how much of the paper's
// average-case gain comes from the exact test alone (versus splitting).
type Admission int

const (
	// AdmitRTA is exact response-time analysis.
	AdmitRTA Admission = iota
	// AdmitHyperbolic is the hyperbolic bound of Bini & Buttazzo:
	// Π(U_i + 1) ≤ 2.
	AdmitHyperbolic
	// AdmitLL is the Liu & Layland utilization test: ΣU_i ≤ Θ(n).
	AdmitLL
	// AdmitHanTyan is the Han & Tyan DCT test: fold the periods onto a
	// harmonic grid and accept if some folding keeps utilization ≤ 1.
	// Strictly between the hyperbolic bound and exact RTA in strength.
	AdmitHanTyan
)

func (a Admission) String() string {
	switch a {
	case AdmitRTA:
		return "RTA"
	case AdmitHyperbolic:
		return "HB"
	case AdmitLL:
		return "LL"
	case AdmitHanTyan:
		return "HT"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

// admits reports whether task (c, t) fits on the processor under one of
// the threshold admission tests. AdmitRTA never reaches it:
// fitPartitionAdmit routes the exact test through fitsWhole. The float
// margin lies on the refusing side, so a set just above a bound is refused;
// Han–Tyan compares exactly, on C/T scratch from ar (the list, then the
// candidate).
func (a Admission) admits(list []task.Subtask, c, t task.Time, ar *Arena) bool {
	switch a {
	case AdmitHyperbolic:
		prod := 1 + float64(c)/float64(t)
		for _, s := range list {
			prod *= 1 + s.Utilization()
		}
		return prod <= 2-utilEps
	case AdmitLL:
		sum := float64(c) / float64(t)
		for _, s := range list {
			sum += s.Utilization()
		}
		return sum <= bounds.LL(len(list)+1)-utilEps
	case AdmitHanTyan:
		cs, ts := ar.htC[:0], ar.htT[:0]
		for _, s := range list {
			cs, ts = append(cs, s.C), append(ts, s.T)
		}
		ar.htC, ar.htT = append(cs, c), append(ts, t)
		return bounds.HanTyanScratch(ar.htC, ar.htT, &ar.bsc)
	default:
		panic("partition: unknown admission test")
	}
}

// FirstFit is strict partitioned RM with a configurable admission test —
// the ablation family behind the AdmitRTA/AdmitHyperbolic/AdmitLL
// comparison. FirstFitRTA is the Admission = AdmitRTA member.
type FirstFit struct {
	// Order picks the task consideration order.
	Order FitOrder
	// Admission picks the uniprocessor test (zero value: AdmitRTA).
	Admission Admission
	// Trace, when non-nil, records every placement decision.
	Trace *obs.Trace
}

// Name implements Algorithm.
func (a FirstFit) Name() string {
	return fmt.Sprintf("P-RM-FF[%s](%s)", a.Admission, a.Order)
}

// Partition implements Algorithm.
func (a FirstFit) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements Algorithm.
func (a FirstFit) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	return fitPartitionAdmit(ts, m, a.Order, false, a.Admission, a.Trace, ar)
}

func fitPartitionAdmit(ts task.Set, m int, order FitOrder, worst bool, admit Admission, tr *obs.Trace, ar *Arena) *Result {
	if ar == nil {
		ar = new(Arena)
	}
	sorted, asg, fail := ar.prepare(ts, m)
	if fail != nil {
		return fail
	}
	if admit != AdmitRTA {
		if res := requireImplicit(sorted, asg, "bound-based admission ("+admit.String()+")"); res != nil {
			return res
		}
	}
	res := ar.result("")

	idxs := ar.taskOrder(sorted, order)

	// Per-processor incremental RTA state; only the exact test consults it
	// (the threshold tests don't run fixed points), but the mirror costs
	// nothing to maintain and keeps one assignment path.
	states := ar.procStates(m, 0)

	for _, i := range idxs {
		t := sorted[i]
		placed := false
		for _, q := range fitOrder(&ar.order, m, worst, asg.Utilization) {
			cAssignAttempts.Inc()
			before := traceIters(tr)
			abortsBefore := traceAborts(tr)
			// Every admission refuses U > 1, so an over-full processor is
			// refused before any of them runs: inside fitsWhole for the
			// exact test, here for the thresholds.
			uq := asg.Utilization(q)
			ok, by := false, byUtilization
			switch {
			case admit == AdmitRTA:
				ok, by = fitsWhole(&states[q], uq, i, t.C, t.T, t.Deadline())
			case !OverUtilized(uq, t.Utilization()):
				ok, by = admit.admits(asg.Procs[q], t.C, t.T, ar), byThreshold
			}
			if by == byUtilization {
				cUtilSkips.Inc()
				if tr != nil {
					tr.Add(obs.Event{Kind: obs.EvReject, Task: i, Part: 1, Proc: q,
						C: t.C, Deadline: t.Deadline(),
						Note: "utilization room: U_q + u > 1, no " + admit.String()})
				}
				continue
			}
			if ok {
				asg.Add(q, task.Whole(i, t))
				states[q].Insert(task.Whole(i, t))
				cAssignWhole.Inc()
				if tr != nil {
					note := admit.String() + " admission"
					if by == byPrefilter {
						note = "HB-prefilter admission"
					}
					tr.Add(obs.Event{Kind: obs.EvAssigned, Task: i, Part: 1, Proc: q,
						C: t.C, Deadline: t.Deadline(), RTAIters: traceIters(tr) - before,
						RTAAborted: traceAborts(tr) > abortsBefore,
						OK:         true, Note: note})
				}
				placed = true
				break
			} else if tr != nil {
				tr.Add(obs.Event{Kind: obs.EvReject, Task: i, Part: 1, Proc: q,
					C: t.C, Deadline: t.Deadline(), RTAIters: traceIters(tr) - before,
					RTAAborted: traceAborts(tr) > abortsBefore,
					Note:       admit.String() + " admission"})
			}
		}
		if !placed {
			cause := CauseRTADeadlineMiss
			if admit != AdmitRTA {
				// The bound-based admissions (LL/HB/HT) are utilization
				// thresholds, not deadline-miss proofs.
				cause = CauseThresholdExhausted
			}
			// Concatenation, not Sprintf: this is the common exit of every
			// rejected set in the acceptance and breakdown sweeps.
			failWith(res, cause, i,
				"no processor admits τ"+strconv.Itoa(i)+" whole (strict partitioning)")
			traceFail(tr, i, res.Reason)
			return res
		}
	}
	res.OK = true
	res.Guaranteed = true
	traceDone(tr, res)
	return res
}

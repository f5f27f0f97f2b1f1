package partition

import (
	"fmt"

	"repro/internal/edfa"
	"repro/internal/task"
)

// Partitioned EDF baselines. The paper's intro positions its fixed-priority
// results against EDF-based approaches: strict partitioned EDF has the same
// 50% bin-packing worst case as any strict partitioning, and the best
// EDF-with-splitting bound it cites is 65% [17]. For implicit-deadline
// tasks, a uniprocessor is EDF-schedulable iff its utilization is at most
// 1, so strict partitioned EDF reduces to pure bin packing with full bins —
// the strongest possible strict partitioner, and therefore the fairest
// non-splitting comparator for RM-TS.
//
// Results produced here carry Scheduler = "EDF"; they must be verified by
// VerifyEDF (per-processor utilization ≤ 1, no splits) and simulated with
// sim.Options{Policy: sim.PolicyEDF}.

// EDFFirstFit is strict partitioned EDF: tasks placed whole, first-fit,
// admission ΣU ≤ 1 per processor (exact for implicit deadlines).
type EDFFirstFit struct {
	// Order picks the task consideration order; zero value is
	// DecreasingUtilization (the classic FFD).
	Order FitOrder
}

// Name implements Algorithm.
func (a EDFFirstFit) Name() string { return "P-EDF-FF(" + a.Order.String() + ")" }

// Partition implements Algorithm.
func (a EDFFirstFit) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements Algorithm.
func (a EDFFirstFit) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	return edfFit(ts, m, a.Order, false, ar)
}

// EDFWorstFit is strict partitioned EDF with worst-fit processor choice.
type EDFWorstFit struct {
	// Order picks the task consideration order.
	Order FitOrder
}

// Name implements Algorithm.
func (a EDFWorstFit) Name() string { return "P-EDF-WF(" + a.Order.String() + ")" }

// Partition implements Algorithm.
func (a EDFWorstFit) Partition(ts task.Set, m int) *Result {
	return a.PartitionArena(ts, m, nil)
}

// PartitionArena implements Algorithm.
func (a EDFWorstFit) PartitionArena(ts task.Set, m int, ar *Arena) *Result {
	return edfFit(ts, m, a.Order, true, ar)
}

func edfFit(ts task.Set, m int, order FitOrder, worst bool, ar *Arena) *Result {
	if ar == nil {
		ar = new(Arena)
	}
	sorted, asg, fail := ar.prepare(ts, m)
	if fail != nil {
		return fail
	}
	if res := requireImplicit(sorted, asg, "partitioned EDF (U ≤ 1 test)"); res != nil {
		res.Scheduler = "EDF"
		return res
	}
	res := ar.result("EDF")

	idxs := ar.taskOrder(sorted, order)

	for _, i := range idxs {
		t := sorted[i]
		u := t.Utilization()
		placed := false
		for _, q := range fitOrder(&ar.order, m, worst, asg.Utilization) {
			if !OverUtilized(asg.Utilization(q), u) {
				asg.Add(q, task.Whole(i, t))
				placed = true
				break
			}
		}
		if !placed {
			failWith(res, CauseDemandOverload, i,
				fmt.Sprintf("no processor has utilization room for τ%d (strict EDF partitioning)", i))
			return res
		}
	}
	res.OK = true
	res.Guaranteed = true
	return res
}

// VerifyEDF independently re-checks a partitioned-EDF result (with or
// without window splits): structural invariants, the exact processor-
// demand criterion on every processor (each fragment a sporadic source
// (C, T, Δ)), and — for split tasks — that the fragment windows tile
// without overlap and end by the task's deadline.
func VerifyEDF(res *Result) error {
	if res == nil || res.Assignment == nil {
		return fmt.Errorf("partition: nil result")
	}
	if !res.OK {
		return fmt.Errorf("partition: result reports failure: %s", res.Reason)
	}
	if res.Scheduler != "EDF" {
		return fmt.Errorf("partition: VerifyEDF on a %q result", res.Scheduler)
	}
	asg := res.Assignment
	var frags task.FragmentIndex
	if err := asg.ValidateIndexed(&frags); err != nil {
		return fmt.Errorf("partition: structural check failed: %w", err)
	}
	for q, list := range asg.Procs {
		sources := make([]edfa.Demand, len(list))
		for i, s := range list {
			sources[i] = edfa.Demand{C: s.C, T: s.T, D: s.Deadline}
		}
		if !edfa.Schedulable(sources) {
			return fmt.Errorf("partition: processor %d fails the EDF demand criterion", q)
		}
	}
	// Split tasks: windows must be disjoint and end by the deadline.
	for _, idx := range asg.SplitTasks() {
		chain := frags.Of(idx)
		for k := 1; k < len(chain); k++ {
			cur, prev := chain[k].Sub, chain[k-1].Sub
			if cur.Offset < prev.Offset+prev.Deadline {
				return fmt.Errorf("partition: task %d: window of part %d opens before part %d closes", idx, cur.Part, prev.Part)
			}
		}
		last := chain[len(chain)-1].Sub
		if last.Offset+last.Deadline > asg.Set[idx].T {
			return fmt.Errorf("partition: task %d: final window ends past the deadline", idx)
		}
	}
	return nil
}

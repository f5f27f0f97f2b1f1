package partition

import (
	"slices"

	"repro/internal/bounds"
	"repro/internal/edfa"
	"repro/internal/rta"
	"repro/internal/task"
)

// Arena is the reusable scratch state of one partitioning "lane": every
// slice a partitioner needs per call — the sorted working copy of the task
// set, the assignment's per-processor lists, the incremental rta.ProcState
// mirrors, the packing bookkeeping (full/normal/pre-assignment flags,
// suffix utilizations, consideration orders), the PUB evaluation scratch
// and the EDF demand mirrors — lives here and is recycled across calls, so
// a warm arena makes a whole Partition run allocation-free.
//
// Ownership rules (the memory-discipline contract, see DESIGN.md):
//
//   - The *Result returned by PartitionArena, including its Assignment and
//     everything reachable from it, BORROWS the arena: it is valid only
//     until the next PartitionArena call on the same arena. Callers that
//     retain anything past that point must copy it first.
//   - The input task set is never modified and never retained; the arena
//     keeps its own copy and a sorted copy of it.
//   - An Arena is not safe for concurrent use. The experiment harness
//     keeps one per worker (experiments.Workspace); algorithms hold no
//     arena state themselves, so one Algorithm value may be shared across
//     goroutines as long as each passes its own arena.
//
// The zero value is ready to use. A nil *Arena is accepted everywhere and
// means "allocate fresh" — PartitionArena with a nil arena is exactly
// Partition, which is also how every Partition method is implemented.
type Arena struct {
	input    task.Set // copy of the last valid set prepared (when prepared)
	prepared bool     // sorted is input DM-sorted and validated
	sorted   task.Set
	asg      task.Assignment
	states   []rta.ProcState
	res      Result
	full     []bool
	normal   []bool
	pre      []bool
	suffix   []float64
	idxs     []int
	order    []int
	keys     []float64
	preProcs []int
	bsc      bounds.Scratch
	htC      []task.Time // Han–Tyan admission: the processor's C, then the candidate's
	htT      []task.Time // Han–Tyan admission: the matching periods
	wf       wfTree
	demands  [][]edfa.Demand
	scratch  []edfa.Demand
	caps     []edfCap
	budget   []task.Time
}

// ArenaPartitioner is Algorithm under its former name, kept while the
// benchmark harness still names it.
type ArenaPartitioner = Algorithm

// prepare is the arena-backed counterpart of the former package prepare:
// copy the input into the arena's working set, DM-sort it, validate, and
// reset the arena assignment. Observationally identical to clone + sort +
// NewAssignment.
//
// The prepared-set rule: the arena remembers a copy of the last valid set
// it prepared, and a set equal to it element by element (the next
// algorithm offered the same sample) reuses the sorted, validated copy and
// only resets the assignment. Equality is on content, not on the slice, so
// a caller that rewrites its buffer in place between calls (breakdown's
// scaled probes) misses; an invalid set is never remembered.
func (ar *Arena) prepare(ts task.Set, m int) (task.Set, *task.Assignment, *Result) {
	if m <= 0 {
		ar.res = Result{}
		return nil, nil, failWith(&ar.res, CauseInvalidInput, -1, "no processors")
	}
	if ar.prepared && slices.Equal(ar.input, ts) {
		ar.asg.Reset(ar.sorted, m)
		return ar.sorted, &ar.asg, nil
	}
	ar.input = append(ar.input[:0], ts...)
	sorted := append(ar.sorted[:0], ts...)
	ar.sorted = sorted
	sorted.SortDM() // identical to RM order for implicit-deadline sets
	ar.asg.Reset(sorted, m)
	if err := sorted.Validate(); err != nil {
		ar.prepared = false
		ar.res = Result{Assignment: &ar.asg}
		return nil, nil, failWith(&ar.res, CauseInvalidInput, -1, err.Error())
	}
	ar.prepared = true
	return sorted, &ar.asg, nil
}

// result resets and returns the arena's Result, pointing at its assignment.
func (ar *Arena) result(scheduler string) *Result {
	ar.res = Result{Assignment: &ar.asg, FailedTask: -1, Scheduler: scheduler}
	return &ar.res
}

// procStates resets the arena's incremental RTA states for m processors.
func (ar *Arena) procStates(m int, surcharge task.Time) []rta.ProcState {
	ar.states = rta.ResetProcStates(ar.states, m, surcharge)
	return ar.states
}

// boolBuf returns an n-length cleared bool buffer from *buf.
func boolBuf(buf *[]bool, n int) []bool {
	b := *buf
	if cap(b) < n {
		b = make([]bool, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = false
		}
	}
	*buf = b
	return b
}

// floatBuf returns an n-length cleared float64 buffer from *buf.
func floatBuf(buf *[]float64, n int) []float64 {
	b := *buf
	if cap(b) < n {
		b = make([]float64, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = 0
		}
	}
	*buf = b
	return b
}

// intBuf returns an n-length int buffer from *buf; contents are arbitrary
// (callers overwrite every element).
func intBuf(buf *[]int, n int) []int {
	b := *buf
	if cap(b) < n {
		b = make([]int, n)
	} else {
		b = b[:n]
	}
	*buf = b
	return b
}

// taskOrder fills the arena's index buffer with 0..n-1 permuted per the
// fit order, using sorted's utilizations as sort keys. The DU permutation
// is byte-identical to the former sort.SliceStable (stable insertion sort,
// keys computed once per task).
func (ar *Arena) taskOrder(sorted task.Set, order FitOrder) []int {
	n := len(sorted)
	idxs := intBuf(&ar.idxs, n)
	for i := range idxs {
		idxs[i] = i
	}
	switch order {
	case DecreasingUtilization:
		keys := floatBuf(&ar.keys, n)
		for i := range keys {
			keys[i] = sorted[i].Utilization()
		}
		sortIdxsByKeyDesc(idxs, keys)
	case IncreasingPriority:
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			idxs[i], idxs[j] = idxs[j], idxs[i]
		}
	case DecreasingPriority:
		// already in place
	}
	return idxs
}

// sortIdxsByKeyDesc stably sorts idxs by descending keys[idx] — an
// insertion sort moving elements only past strictly smaller keys, hence
// the same permutation as sort.SliceStable with the matching less.
func sortIdxsByKeyDesc(idxs []int, keys []float64) {
	for i := 1; i < len(idxs); i++ {
		x := idxs[i]
		k := keys[x]
		j := i - 1
		for j >= 0 && keys[idxs[j]] < k {
			idxs[j+1] = idxs[j]
			j--
		}
		idxs[j+1] = x
	}
}

// demandsBuf returns the per-processor EDF demand mirror with m empty
// rows, preserving row capacities across calls.
func (ar *Arena) demandsBuf(m int) [][]edfa.Demand {
	if cap(ar.demands) < m {
		grown := make([][]edfa.Demand, m)
		copy(grown, ar.demands[:cap(ar.demands)])
		ar.demands = grown
	} else {
		ar.demands = ar.demands[:m]
	}
	for q := range ar.demands {
		ar.demands[q] = ar.demands[q][:0]
	}
	return ar.demands
}

// edfCap is one processor's spare window capacity during an EDF-TS window
// split (lifted out of splitByWindows so the candidate list can live in
// the arena): the exact budget when exact is set, otherwise an upper
// bound on it.
type edfCap struct {
	q     int
	c     task.Time
	exact bool
}

// before orders candidates by capacity, descending, then by processor
// index.
func (x edfCap) before(y edfCap) bool {
	return x.c > y.c || (x.c == y.c && x.q < y.q)
}

// budgetBuf returns the per-processor EDF-TS window budgets, m entries
// all set to c.
func (ar *Arena) budgetBuf(m int, c task.Time) []task.Time {
	if cap(ar.budget) < m {
		ar.budget = make([]task.Time, m)
	}
	ar.budget = ar.budget[:m]
	for q := range ar.budget {
		ar.budget[q] = c
	}
	return ar.budget
}

// wfTree is the worst-fit processor pick of RM-TS/light, RM-TS phase 2,
// SPA1 and SPA2: a tournament tree over (U_q, q) of the live processors —
// eligible and not full — whose root is the processor with the least
// assigned utilization, ties to the lowest index (the same float
// comparison as a left-to-right scan keeping strict improvements). A
// placement on q re-plays q's path to the root: a pick costs O(1) and an
// update O(log m), where the scan read every processor per pick.
type wfTree struct {
	util []float64 // leaf keys: U_q as of q's last update
	node []int     // node[1] is the root, leaf q at size+q; -1: no live processor below
	size int
}

// worstFit resets the arena's worst-fit tree over asg's processors;
// eligible == nil makes every processor eligible.
func (ar *Arena) worstFit(asg *task.Assignment, eligible, full []bool) *wfTree {
	w := &ar.wf
	m := len(asg.Procs)
	w.size = 1
	for w.size < m {
		w.size <<= 1
	}
	w.util = floatBuf(&w.util, m)
	w.node = intBuf(&w.node, 2*w.size)
	for i := 0; i < w.size; i++ {
		q := -1
		if i < m && (eligible == nil || eligible[i]) && !full[i] {
			q = i
			w.util[i] = asg.Utilization(i)
		}
		w.node[w.size+i] = q
	}
	for i := w.size - 1; i >= 1; i-- {
		w.node[i] = w.winner(w.node[2*i], w.node[2*i+1])
	}
	return w
}

// winner plays a left subtree's champion a against a right one's b: every
// index in a's subtree is below every index in b's, so a tie goes to a.
func (w *wfTree) winner(a, b int) int {
	if a < 0 || (b >= 0 && w.util[b] < w.util[a]) {
		return b
	}
	return a
}

// pick returns the live processor with the least utilization, or -1.
func (w *wfTree) pick() int { return w.node[1] }

// update records processor q's utilization u after a placement on it, and
// whether it is still live (not full).
func (w *wfTree) update(q int, u float64, live bool) {
	w.util[q] = u
	i := w.size + q
	if !live {
		w.node[i] = -1
	}
	for i > 1 {
		i /= 2
		w.node[i] = w.winner(w.node[2*i], w.node[2*i+1])
	}
}

package task

import (
	"fmt"
	"sort"
	"strings"
)

// Assignment is the outcome of a partitioning algorithm: for each of the M
// processors, the list of subtasks that execute there, kept sorted by
// priority (ascending TaskIndex, i.e. highest priority first).
type Assignment struct {
	// Set is the RM-sorted task set that was partitioned.
	Set Set
	// Procs holds the subtasks hosted by each processor, highest priority
	// first. It is mutated only through Add and Reset, which keep the
	// cached per-processor utilizations in step with it.
	Procs [][]Subtask
	// PreAssigned records, per processor, the task index pre-assigned to it
	// by RM-TS phase 1, or -1 for normal processors.
	PreAssigned []int
	// terms[q][k] caches Procs[q][k].Utilization(), and util[q] caches
	// processor q's utilization: the in-order sum of terms[q]. Add keeps
	// util[q] bit-identical to a fresh in-order sum (see Add).
	terms [][]float64
	util  []float64
}

// NewAssignment returns an empty assignment for set ts on m processors.
func NewAssignment(ts Set, m int) *Assignment {
	a := &Assignment{}
	a.Reset(ts, m)
	return a
}

// Reset re-initialises the assignment for set ts on m processors, recycling
// the per-processor subtask slices and the pre-assignment array from the
// previous use. After Reset the assignment is observationally identical to
// NewAssignment(ts, m); only slice capacities are carried over, so repeated
// Reset/fill cycles on one Assignment allocate nothing once capacities have
// grown to the working-set size.
func (a *Assignment) Reset(ts Set, m int) {
	a.Set = ts
	if cap(a.Procs) < m {
		grown := make([][]Subtask, m)
		// Reslice to capacity so per-processor slices that grew in earlier
		// uses keep their backing arrays.
		copy(grown, a.Procs[:cap(a.Procs)])
		a.Procs = grown
	} else {
		a.Procs = a.Procs[:m]
	}
	for q := range a.Procs {
		a.Procs[q] = a.Procs[q][:0]
	}
	if cap(a.PreAssigned) < m {
		a.PreAssigned = make([]int, m)
	} else {
		a.PreAssigned = a.PreAssigned[:m]
	}
	for i := range a.PreAssigned {
		a.PreAssigned[i] = -1
	}
	if cap(a.terms) < m {
		grown := make([][]float64, m)
		copy(grown, a.terms[:cap(a.terms)])
		a.terms = grown
	} else {
		a.terms = a.terms[:m]
	}
	for q := range a.terms {
		a.terms[q] = a.terms[q][:0]
	}
	if cap(a.util) < m {
		a.util = make([]float64, m)
	} else {
		a.util = a.util[:m]
		clear(a.util)
	}
}

// M returns the number of processors.
func (a *Assignment) M() int { return len(a.Procs) }

// Add places subtask s on processor q, maintaining priority order.
//
// The cached utilization stays bit-identical to summing the list in order,
// so no worst-fit tie can flip. At the tail the in-order sum's last step is
// exactly util[q] + u; anywhere else the cached terms are re-summed in
// order, the same additions on the same operands, with no division.
func (a *Assignment) Add(q int, s Subtask) {
	list, terms := a.Procs[q], a.terms[q]
	u := s.Utilization()
	pos := len(list)
	if pos == 0 || list[pos-1].TaskIndex <= s.TaskIndex {
		a.Procs[q], a.terms[q] = append(list, s), append(terms, u)
		a.util[q] += u
		return
	}
	// Partitioners that do not add at the tail add at the head
	// (increasing priority order): test it before scanning back.
	if list[0].TaskIndex > s.TaskIndex {
		pos = 0
	}
	for pos > 0 && list[pos-1].TaskIndex > s.TaskIndex {
		pos--
	}
	list = append(list, Subtask{})
	copy(list[pos+1:], list[pos:])
	list[pos] = s
	terms = append(terms, 0)
	copy(terms[pos+1:], terms[pos:])
	terms[pos] = u
	a.Procs[q], a.terms[q] = list, terms
	sum := 0.0
	for _, t := range terms {
		sum += t
	}
	a.util[q] = sum
}

// Utilization returns the assigned utilization U(P_q) of processor q: the
// sum of its subtasks' C/T in priority order, cached by Add.
func (a *Assignment) Utilization(q int) float64 { return a.util[q] }

// TotalUtilization returns the sum of assigned utilizations over all
// processors.
func (a *Assignment) TotalUtilization() float64 {
	sum := 0.0
	for q := range a.Procs {
		sum += a.Utilization(q)
	}
	return sum
}

// Subtasks returns all fragments of task idx across processors, ordered by
// part number, together with their processor indices.
func (a *Assignment) Subtasks(idx int) (subs []Subtask, procs []int) {
	type frag struct {
		s Subtask
		q int
	}
	var frags []frag
	for q, list := range a.Procs {
		for _, s := range list {
			if s.TaskIndex == idx {
				frags = append(frags, frag{s, q})
			}
		}
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].s.Part < frags[j].s.Part })
	for _, f := range frags {
		subs = append(subs, f.s)
		procs = append(procs, f.q)
	}
	return subs, procs
}

// SplitTasks returns the indices of tasks that were split into two or more
// fragments, in ascending order.
func (a *Assignment) SplitTasks() []int {
	count := map[int]int{}
	for _, list := range a.Procs {
		for _, s := range list {
			count[s.TaskIndex]++
		}
	}
	var out []int
	for idx, n := range count {
		if n > 1 {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// Validate checks the structural invariants of a complete assignment:
// every task appears with fragments summing to its C, fragment part numbers
// are 1..k with exactly one tail (the last), synthetic deadlines follow
// Δ^k = T − Σ_{l<k} R^l with R^l ≥ C^l (equation (1); R^l = C^l when the
// body fragment has the highest priority on its host, Lemma 2), no two
// fragments of a task share a processor, and per-processor lists are
// priority sorted.
func (a *Assignment) Validate() error {
	for q, list := range a.Procs {
		for i, s := range list {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("processor %d: %w", q, err)
			}
			if i > 0 && list[i-1].TaskIndex >= s.TaskIndex {
				return fmt.Errorf("processor %d: subtasks out of priority order at position %d", q, i)
			}
			if s.TaskIndex >= len(a.Set) {
				return fmt.Errorf("processor %d: subtask refers to unknown task %d", q, s.TaskIndex)
			}
		}
	}
	for idx, t := range a.Set {
		subs, procs := a.Subtasks(idx)
		if len(subs) == 0 {
			return fmt.Errorf("task %d (%s) is not assigned to any processor", idx, t)
		}
		seen := map[int]bool{}
		base := t.T - t.Deadline() // 0 for implicit deadlines
		sumC := Time(0)
		minOffset := base
		prevOffset := Time(0)
		for k, s := range subs {
			if s.Part != k+1 {
				return fmt.Errorf("task %d: fragment parts are not contiguous (got part %d at position %d)", idx, s.Part, k)
			}
			if seen[procs[k]] {
				return fmt.Errorf("task %d: two fragments share processor %d", idx, procs[k])
			}
			seen[procs[k]] = true
			if s.T != t.T {
				return fmt.Errorf("task %d: fragment period %d differs from task period %d", idx, s.T, t.T)
			}
			if k == 0 && s.Offset != base {
				return fmt.Errorf("task %d: first fragment offset %d, want T−D = %d", idx, s.Offset, base)
			}
			if s.Offset < minOffset {
				return fmt.Errorf("task %d part %d: offset %d is below the cumulative execution %d of prior fragments", idx, s.Part, s.Offset, minOffset)
			}
			if k > 0 && s.Offset <= prevOffset {
				return fmt.Errorf("task %d part %d: offset %d does not increase past predecessor's %d", idx, s.Part, s.Offset, prevOffset)
			}
			if s.Deadline > t.T-s.Offset {
				// Equality is the fixed-priority chain bookkeeping
				// (Δ = T − offset); window-based EDF splitting assigns
				// strictly tighter per-fragment deadlines, which is always
				// safe. Looser is never allowed.
				return fmt.Errorf("task %d part %d: synthetic deadline %d exceeds chain budget T−offset = %d", idx, s.Part, s.Deadline, t.T-s.Offset)
			}
			wantTail := k == len(subs)-1
			if s.Tail != wantTail {
				return fmt.Errorf("task %d part %d: tail flag %v, want %v", idx, s.Part, s.Tail, wantTail)
			}
			sumC += s.C
			minOffset += s.C
			prevOffset = s.Offset
		}
		if sumC != t.C {
			return fmt.Errorf("task %d: fragment execution times sum to %d, want %d", idx, sumC, t.C)
		}
	}
	return nil
}

// String renders the assignment one processor per line.
func (a *Assignment) String() string {
	var b strings.Builder
	for q, list := range a.Procs {
		fmt.Fprintf(&b, "P%d (U=%.4f)", q, a.Utilization(q))
		if a.PreAssigned[q] >= 0 {
			fmt.Fprintf(&b, " [pre τ%d]", a.PreAssigned[q])
		}
		b.WriteString(":")
		for _, s := range list {
			b.WriteString(" ")
			b.WriteString(s.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

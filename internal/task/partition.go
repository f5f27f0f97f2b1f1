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

// Fragment locates one fragment of a task in an Assignment: the subtask,
// the processor hosting it, and its position in that processor's list
// (Procs[Proc][Pos] == Sub).
type Fragment struct {
	Sub  Subtask
	Proc int
	Pos  int
}

// FragmentIndex groups the fragments of every task of an Assignment in
// part order. Build counts fragments by task index, places them in
// processor-then-list order, and insertion-sorts each task's few
// fragments by part, so equal parts (only an invalid assignment has them)
// keep processor order. The buffers are reused across Builds: a long-lived
// index allocates nothing once it has grown to the working-set size.
type FragmentIndex struct {
	// start[idx] is where task idx's fragments begin in frags; they end at
	// start[idx+1].
	start []int
	frags []Fragment
}

// Build indexes a. Fragments whose task index is outside the set are
// skipped (Validate reports them).
func (x *FragmentIndex) Build(a *Assignment) {
	n := len(a.Set)
	x.start = resize(x.start, n+1)
	clear(x.start)
	for _, list := range a.Procs {
		for _, s := range list {
			if s.TaskIndex >= 0 && s.TaskIndex < n {
				x.start[s.TaskIndex+1]++
			}
		}
	}
	for idx := 1; idx <= n; idx++ {
		x.start[idx] += x.start[idx-1]
	}
	// Place each fragment at its task's cursor start[idx], which advances
	// to the task's end; shifting start right by one slot restores the
	// task starts.
	x.frags = resize(x.frags, x.start[n])
	for q, list := range a.Procs {
		for i, s := range list {
			if s.TaskIndex >= 0 && s.TaskIndex < n {
				x.frags[x.start[s.TaskIndex]] = Fragment{Sub: s, Proc: q, Pos: i}
				x.start[s.TaskIndex]++
			}
		}
	}
	copy(x.start[1:], x.start[:n])
	x.start[0] = 0
	for idx := 0; idx < n; idx++ {
		frags := x.frags[x.start[idx]:x.start[idx+1]]
		for k := 1; k < len(frags); k++ {
			for j := k; j > 0 && frags[j].Sub.Part < frags[j-1].Sub.Part; j-- {
				frags[j], frags[j-1] = frags[j-1], frags[j]
			}
		}
	}
}

// Of returns task idx's fragments in part order. The slice is valid until
// the next Build.
func (x *FragmentIndex) Of(idx int) []Fragment {
	lo, hi := x.start[idx], x.start[idx+1]
	return x.frags[lo:hi:hi]
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	var x FragmentIndex
	return a.ValidateIndexed(&x)
}

// ValidateIndexed is Validate drawing its fragment index from x. When it
// returns nil, x indexes a.
func (a *Assignment) ValidateIndexed(x *FragmentIndex) error {
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
	x.Build(a)
	for idx, t := range a.Set {
		frags := x.Of(idx)
		if len(frags) == 0 {
			return fmt.Errorf("task %d (%s) is not assigned to any processor", idx, t)
		}
		base := t.T - t.Deadline() // 0 for implicit deadlines
		sumC := Time(0)
		minOffset := base
		prevOffset := Time(0)
		for k, f := range frags {
			s := f.Sub
			if s.Part != k+1 {
				return fmt.Errorf("task %d: fragment parts are not contiguous (got part %d at position %d)", idx, s.Part, k)
			}
			for _, prev := range frags[:k] {
				if prev.Proc == f.Proc {
					return fmt.Errorf("task %d: two fragments share processor %d", idx, f.Proc)
				}
			}
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
			wantTail := k == len(frags)-1
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

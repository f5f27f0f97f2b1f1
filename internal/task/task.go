// Package task defines the Liu & Layland task model of the paper (§II): a
// task is a pair (C, T) of worst-case execution time and minimal
// inter-release separation (period, which is also the relative deadline), a
// task set is a priority-ordered collection of tasks, and — for partitioned
// scheduling with task splitting — a subtask is a fragment of a task with a
// synthetic deadline that accounts for the synchronization delay of its
// predecessor fragments on other processors.
//
// Time is discrete (int64 ticks). Rate-monotonic priority order is encoded
// positionally: after SortRM, a smaller index means a shorter period and
// therefore a higher priority, exactly as in the paper ("i < j implies τ_i
// has higher priority than τ_j").
package task

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/mathx"
)

// Time is a discrete instant or duration in ticks.
type Time = int64

// The model's domain (DESIGN.md §13). Every execution time, period,
// deadline, synthetic deadline, offset and surcharge lies in [0, MaxTime]
// ticks, and a task set holds at most MaxTasks tasks. Task.Validate,
// Subtask.Validate and Set.Validate refuse anything outside it, so every
// exact-RTA demand the analyses evaluate stays far inside int64 and each
// analysis quantity needs one unchecked kernel. MaxTime is about 4.9 hours
// at 1 ns ticks and 203 days at 1 µs ticks.
const (
	MaxTime  Time = 1 << 44
	MaxTasks      = 1 << 16
)

// ErrDomain marks a value outside the model's domain (see MaxTime).
var ErrDomain = errors.New("outside the model's domain")

// domainError reports value v of the named quantity above MaxTime.
func domainError(who, what string, v Time) error {
	return fmt.Errorf("%s: %s %d exceeds MaxTime %d: %w", who, what, v, MaxTime, ErrDomain)
}

// Task is a sporadic task: worst-case execution time C, period T, and an
// optional constrained relative deadline D. The paper's model (§II) is the
// implicit-deadline Liu & Layland task (D = T), written by leaving D zero;
// setting 0 < D ≤ T selects the constrained-deadline extension, analysed
// with deadline-monotonic priorities (which coincide with RM when every
// deadline is implicit).
type Task struct {
	// Name is an optional human-readable label. It does not affect any
	// analysis; ties in deadline/period are broken by position.
	Name string
	// C is the worst-case execution time in ticks. Must be positive and at
	// most Deadline().
	C Time
	// T is the period (minimal inter-release separation) in ticks. Must be
	// positive.
	T Time
	// D is the relative deadline in ticks; zero means implicit (D = T).
	// When set it must satisfy C ≤ D ≤ T.
	D Time
}

// Deadline returns the effective relative deadline: D when set, else T.
func (t Task) Deadline() Time {
	if t.D > 0 {
		return t.D
	}
	return t.T
}

// Implicit reports whether the task's deadline equals its period.
func (t Task) Implicit() bool { return t.D == 0 || t.D == t.T }

// Utilization returns C/T.
func (t Task) Utilization() float64 {
	return float64(t.C) / float64(t.T)
}

// Density returns C/D — the constrained-deadline analog of utilization.
func (t Task) Density() float64 {
	return float64(t.C) / float64(t.Deadline())
}

// Validate reports an error if the task parameters are not a valid
// constrained sporadic task (0 < C ≤ D ≤ T ≤ MaxTime, with D = T when
// unset). An error for T > MaxTime wraps ErrDomain.
func (t Task) Validate() error {
	switch {
	case t.T <= 0:
		return fmt.Errorf("task %q: period %d is not positive", t.Name, t.T)
	case t.T > MaxTime:
		return domainError(fmt.Sprintf("task %q", t.Name), "period", t.T)
	case t.C <= 0:
		return fmt.Errorf("task %q: execution time %d is not positive", t.Name, t.C)
	case t.D < 0:
		return fmt.Errorf("task %q: deadline %d is negative", t.Name, t.D)
	case t.D > t.T:
		return fmt.Errorf("task %q: deadline %d exceeds period %d (arbitrary deadlines unsupported)", t.Name, t.D, t.T)
	case t.C > t.Deadline():
		return fmt.Errorf("task %q: execution time %d exceeds deadline %d", t.Name, t.C, t.Deadline())
	}
	return nil
}

// String renders the task as name(C/T) or name(C/T,D) when constrained.
func (t Task) String() string {
	name := t.Name
	if name == "" {
		name = "τ"
	}
	if !t.Implicit() {
		return fmt.Sprintf("%s(%d/%d,D%d)", name, t.C, t.T, t.D)
	}
	return fmt.Sprintf("%s(%d/%d)", name, t.C, t.T)
}

// Set is an ordered collection of tasks. After SortRM the order is the
// rate-monotonic priority order: index 0 has the highest priority.
type Set []Task

// Clone returns a deep copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// SortRM sorts the set into rate-monotonic priority order: non-decreasing
// period, ties broken by original order (the sort is stable).
//
// Stable insertion sort: sets are small (tens of tasks), the hot analysis
// path sorts one per generated sample, and sort.SliceStable allocates for
// its reflection-based swapper. An element moves only past strictly
// greater keys, so the resulting permutation is byte-identical to
// sort.SliceStable with the same less function.
func (s Set) SortRM() {
	for i := 1; i < len(s); i++ {
		t := s[i]
		j := i - 1
		for j >= 0 && s[j].T > t.T {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = t
	}
}

// SortDM sorts the set into deadline-monotonic priority order:
// non-decreasing effective deadline, period as tie-break, then original
// order (stable). For implicit-deadline sets this is exactly SortRM, so
// the partitioning algorithms use it uniformly.
func (s Set) SortDM() {
	for i := 1; i < len(s); i++ {
		t := s[i]
		d := t.Deadline()
		j := i - 1
		for j >= 0 && dmAfter(s[j], d, t.T) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = t
	}
}

// dmAfter reports whether task a orders strictly after deadline/period key
// (d, p) in deadline-monotonic order — the insertion-sort counterpart of
// SortDM's former sort.SliceStable less function.
func dmAfter(a Task, d, p Time) bool {
	da := a.Deadline()
	if da != d {
		return da > d
	}
	return a.T > p
}

// IsSortedRM reports whether the set is in non-decreasing period order.
func (s Set) IsSortedRM() bool {
	for i := 1; i < len(s); i++ {
		if s[i].T < s[i-1].T {
			return false
		}
	}
	return true
}

// IsSortedDM reports whether the set is in non-decreasing effective
// deadline order.
func (s Set) IsSortedDM() bool {
	for i := 1; i < len(s); i++ {
		if s[i].Deadline() < s[i-1].Deadline() {
			return false
		}
	}
	return true
}

// Implicit reports whether every task has an implicit deadline (D = T) —
// the paper's L&L model, required by the utilization-bound theory (the
// SPA baselines, the PUBs) though not by the RTA-based algorithms.
func (s Set) Implicit() bool {
	for _, t := range s {
		if !t.Implicit() {
			return false
		}
	}
	return true
}

// Validate checks every task and reports the first error found. A set of
// more than MaxTasks tasks is refused with an error wrapping ErrDomain.
func (s Set) Validate() error {
	if len(s) == 0 {
		return errors.New("task set is empty")
	}
	if len(s) > MaxTasks {
		return fmt.Errorf("task set of %d tasks exceeds MaxTasks %d: %w", len(s), MaxTasks, ErrDomain)
	}
	for i, t := range s {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("index %d: %w", i, err)
		}
	}
	return nil
}

// TotalUtilization returns the sum of all task utilizations U(τ).
func (s Set) TotalUtilization() float64 {
	sum := 0.0
	for _, t := range s {
		sum += t.Utilization()
	}
	return sum
}

// NormalizedUtilization returns U_M(τ) = U(τ)/M for an M-processor platform.
func (s Set) NormalizedUtilization(m int) float64 {
	if m <= 0 {
		panic("task: NormalizedUtilization with non-positive processor count")
	}
	return s.TotalUtilization() / float64(m)
}

// MaxUtilization returns the largest individual task utilization, or 0 for
// an empty set.
func (s Set) MaxUtilization() float64 {
	max := 0.0
	for _, t := range s {
		if u := t.Utilization(); u > max {
			max = u
		}
	}
	return max
}

// IsLight reports whether every task's utilization is at most threshold
// (Definition 1 of the paper uses threshold = Θ/(1+Θ) with Θ the L&L bound
// of the set).
func (s Set) IsLight(threshold float64) bool {
	for _, t := range s {
		if t.Utilization() > threshold {
			return false
		}
	}
	return true
}

// Hyperperiod returns the least common multiple of all periods, saturating
// at math.MaxInt64.
func (s Set) Hyperperiod() Time {
	acc := Time(1)
	for _, t := range s {
		acc = mathx.LCM(acc, t.T)
		if acc == math.MaxInt64 {
			return acc
		}
	}
	return acc
}

// IsHarmonic reports whether the periods form a single harmonic chain, i.e.
// when sorted, every period divides the next (and therefore any pair of
// periods is in a divides relation).
func (s Set) IsHarmonic() bool {
	periods := make([]Time, len(s))
	for i, t := range s {
		periods[i] = t.T
	}
	sort.Slice(periods, func(i, j int) bool { return periods[i] < periods[j] })
	for i := 1; i < len(periods); i++ {
		if periods[i]%periods[i-1] != 0 {
			return false
		}
	}
	return true
}

// String renders the set compactly.
func (s Set) String() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Subtask is one fragment of a (possibly split) task assigned to a single
// processor. A non-split task is represented by a single subtask whose
// Deadline equals its period (§II). Split tasks have body subtasks followed
// by a tail subtask; each carries a synthetic deadline
// Δ_i^k = T_i − Σ_{l<k} C_i^l (equation (1) with Lemma 2's R^l = C^l).
type Subtask struct {
	// TaskIndex is the index of the owning task in the RM-sorted set. It is
	// also the (sub)task's priority: lower index preempts higher index.
	TaskIndex int
	// Part is the 1-based fragment number within the owning task.
	Part int
	// C is the execution time of this fragment.
	C Time
	// T is the period of the owning task.
	T Time
	// Deadline is the synthetic relative deadline Δ. For a non-split task it
	// equals T.
	Deadline Time
	// Offset is the cumulative execution time of the preceding body
	// subtasks, i.e. T − Deadline. It is the worst-case delay before this
	// fragment becomes ready, relative to the owning job's release.
	Offset Time
	// Tail records whether this is the final fragment of its task (true for
	// the single fragment of a non-split task).
	Tail bool
}

// Utilization returns C/T for the fragment.
func (s Subtask) Utilization() float64 {
	return float64(s.C) / float64(s.T)
}

// Validate reports an error if the subtask's bookkeeping is inconsistent
// or leaves the model's domain (T > MaxTime, wrapping ErrDomain; C, the
// synthetic deadline and the offset are bounded by T).
func (s Subtask) Validate() error {
	switch {
	case s.TaskIndex < 0:
		return fmt.Errorf("subtask %d.%d: negative task index", s.TaskIndex, s.Part)
	case s.Part < 1:
		return fmt.Errorf("subtask %d.%d: parts are 1-based", s.TaskIndex, s.Part)
	case s.C <= 0:
		return fmt.Errorf("subtask %d.%d: execution time %d is not positive", s.TaskIndex, s.Part, s.C)
	case s.T <= 0:
		return fmt.Errorf("subtask %d.%d: period %d is not positive", s.TaskIndex, s.Part, s.T)
	case s.T > MaxTime:
		return domainError(fmt.Sprintf("subtask %d.%d", s.TaskIndex, s.Part), "period", s.T)
	case s.Deadline <= 0:
		return fmt.Errorf("subtask %d.%d: synthetic deadline %d is not positive", s.TaskIndex, s.Part, s.Deadline)
	case s.Deadline > s.T:
		return fmt.Errorf("subtask %d.%d: synthetic deadline %d exceeds period %d", s.TaskIndex, s.Part, s.Deadline, s.T)
	case s.Offset < 0:
		return fmt.Errorf("subtask %d.%d: negative offset %d", s.TaskIndex, s.Part, s.Offset)
	case s.Offset > s.T-s.Deadline:
		return fmt.Errorf("subtask %d.%d: offset %d pushes the window past the period (offset+Δ = %d > T = %d)", s.TaskIndex, s.Part, s.Offset, s.Offset+s.Deadline, s.T)
	case s.C > s.Deadline:
		return fmt.Errorf("subtask %d.%d: execution time %d exceeds synthetic deadline %d", s.TaskIndex, s.Part, s.C, s.Deadline)
	}
	return nil
}

// String renders the subtask as τ<idx>.<part>(C/T,Δ).
func (s Subtask) String() string {
	tail := ""
	if s.Tail && s.Part > 1 {
		tail = "t"
	}
	return fmt.Sprintf("τ%d.%d%s(%d/%d,Δ%d)", s.TaskIndex, s.Part, tail, s.C, s.T, s.Deadline)
}

// Whole returns the single-subtask representation of task t at priority
// index idx (C^1 = C, Δ^1 = the task's effective deadline).
func Whole(idx int, t Task) Subtask {
	d := t.Deadline()
	return Subtask{TaskIndex: idx, Part: 1, C: t.C, T: t.T, Deadline: d, Offset: t.T - d, Tail: true}
}

// Package global implements global fixed-priority multiprocessor
// scheduling — the competing paradigm the paper's introduction positions
// partitioned scheduling against (§I): every task may execute on any
// processor, the M highest-priority ready jobs run at each instant.
//
// It provides:
//
//   - a discrete-event simulator for global preemptive fixed-priority
//     scheduling (no task splitting — jobs migrate freely),
//   - the plain global-RM priority policy, which suffers the Dhall effect
//     [14]: task sets of arbitrarily low utilization can be unschedulable,
//   - the RM-US[ζ] policy of Andersson, Baruah & Jonsson [4], which gives
//     tasks with utilization above ζ = m/(3m−2) the highest priority and
//     orders the rest rate-monotonically, with its utilization bound
//     U(τ) ≤ m²/(3m−2) (i.e. U_M ≤ m/(3m−2) → 1/3 as m grows; the best
//     known global fixed-priority bound the paper quotes is ≈38%),
//
// so the evaluation can place the paper's partitioned algorithms (whose
// bounds reach 81.8–100%) against the global state of the art.
package global

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"repro/internal/task"
)

// Policy selects the priority assignment for global scheduling.
type Policy int

const (
	// RM is plain global rate-monotonic priority (shorter period = higher
	// priority). Subject to the Dhall effect.
	RM Policy = iota
	// RMUS is RM-US[ζ]: tasks with U_i > ζ get the highest priorities
	// (ordered among themselves by period), the rest follow RM order.
	RMUS
)

func (p Policy) String() string {
	switch p {
	case RM:
		return "G-RM"
	case RMUS:
		return "RM-US"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// USThreshold returns ζ = m/(3m−2), the RM-US threshold of [4].
func USThreshold(m int) float64 {
	if m <= 0 {
		panic("global: non-positive processor count")
	}
	return float64(m) / float64(3*m-2)
}

// USBound returns the RM-US[m/(3m−2)] normalized utilization bound
// U_M ≤ m/(3m−2): any task set within it is schedulable by RM-US on m
// processors ([4]). It decreases from 1/2 (m=2) towards 1/3.
func USBound(m int) float64 {
	return USThreshold(m)
}

// Priorities computes the priority order of the RM-sorted set under the
// policy: a permutation perm where perm[k] is the task index with the
// k-th highest priority.
func Priorities(ts task.Set, m int, policy Policy) []int {
	n := len(ts)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if policy == RMUS {
		zeta := USThreshold(m)
		sort.SliceStable(perm, func(a, b int) bool {
			ha := ts[perm[a]].Utilization() > zeta
			hb := ts[perm[b]].Utilization() > zeta
			if ha != hb {
				return ha // heavy tasks first
			}
			return false // stable: keep RM order within each class
		})
	}
	return perm
}

// Options configures a global-scheduling simulation.
type Options struct {
	// Policy selects the priority assignment (default RM).
	Policy Policy
	// Horizon is the simulated duration; zero means the hyperperiod capped
	// by HorizonCap.
	Horizon task.Time
	// HorizonCap bounds the default horizon (zero: 10,000,000 ticks).
	HorizonCap task.Time
	// StopOnMiss aborts at the first deadline miss.
	StopOnMiss bool
}

// Report summarizes a global-scheduling run.
type Report struct {
	// Horizon is the simulated duration.
	Horizon task.Time
	// Misses lists the detected deadline misses.
	Misses []task.Time // detection times
	// MissedTasks lists the task index of each miss, parallel to Misses.
	MissedTasks []int
	// Released and Completed count jobs.
	Released, Completed int64
	// Preemptions counts running jobs displaced by higher-priority
	// arrivals; Migrations counts resumptions that continue a previously
	// preempted job (in global scheduling these generally move between
	// processors).
	Preemptions, Migrations int64
	// WorstResponse maps task index to the largest observed response time.
	WorstResponse map[int]task.Time
}

// Ok reports whether no deadline was missed.
func (r *Report) Ok() bool { return len(r.Misses) == 0 }

const defaultHorizonCap = 10_000_000

// slot names one job: the task it belongs to and that task's job
// generation (how many jobs the task had released when this one was).
type slot struct {
	idx, gen int
}

// Simulate runs the RM-sorted task set under global preemptive
// fixed-priority scheduling on m processors.
//
// A task has at most one live job, so the ready queue is a set of per-task
// arrays and the running set is the first m active tasks in priority-
// permutation order, rebuilt by one scan into one of two reused slot
// buffers. A job is named by (task, generation): at an overrun with
// StopOnMiss false the successor replaces a still-active job, and the
// generation keeps the two apart, so the replaced job counts as a
// preemption and the successor never counts as a migration. After set-up
// nothing is allocated per event (DESIGN.md, "Sweep kernels outside RTA").
func Simulate(ts task.Set, m int, opt Options) (*Report, error) {
	if m <= 0 {
		return nil, fmt.Errorf("global: non-positive processor count %d", m)
	}
	sorted := ts.Clone()
	sorted.SortRM()
	if err := sorted.Validate(); err != nil {
		return nil, fmt.Errorf("global: %w", err)
	}
	if !sorted.Implicit() {
		return nil, fmt.Errorf("global: constrained deadlines are not supported (the RM/RM-US theory is implicit-deadline)")
	}
	horizon := opt.Horizon
	if horizon <= 0 {
		hcap := opt.HorizonCap
		if hcap <= 0 {
			hcap = defaultHorizonCap
		}
		horizon = sorted.Hyperperiod()
		if horizon > hcap || horizon == math.MaxInt64 {
			horizon = hcap
		}
	}
	perm := Priorities(sorted, m, opt.Policy)

	n := len(sorted)
	times := make([]task.Time, 4*n)
	remaining, release, nextRelease, worst := times[:n], times[n:2*n], times[2*n:3*n], times[3*n:]
	ints := make([]int, 3*n)
	gen, doneGen, stamp := ints[:n], ints[n:2*n], ints[2*n:]
	flags := make([]bool, 2*n)
	active, preempted := flags[:n], flags[n:]
	k := min(m, n)
	slots := make([]slot, 2*k)
	run, nextRun := slots[:0:k], slots[k:k]

	rep := &Report{Horizon: horizon}
	finish := func() *Report {
		rep.WorstResponse = make(map[int]task.Time, n)
		for idx, w := range worst {
			if w > 0 {
				rep.WorstResponse[idx] = w
			}
		}
		return rep
	}
	now := task.Time(0)
	epoch := 0
	for now < horizon {
		next := task.Time(math.MaxInt64)
		for idx := range sorted {
			if nextRelease[idx] > now && nextRelease[idx] < next {
				next = nextRelease[idx]
			} else if nextRelease[idx] == now {
				next = now
			}
		}
		for _, s := range run {
			if t := now + remaining[s.idx]; t < next {
				next = t
			}
		}
		if next == math.MaxInt64 || next > horizon {
			next = horizon
		}
		delta := next - now
		for _, s := range run {
			remaining[s.idx] -= delta
		}
		now = next
		// Completions (before releases at the same instant), in priority
		// order.
		for _, s := range run {
			idx := s.idx
			if remaining[idx] > 0 {
				continue
			}
			active[idx] = false
			doneGen[idx] = s.gen
			rep.Completed++
			if resp := now - release[idx]; resp > worst[idx] {
				worst[idx] = resp
			}
			if deadline := release[idx] + sorted[idx].T; now > deadline {
				rep.Misses = append(rep.Misses, now)
				rep.MissedTasks = append(rep.MissedTasks, idx)
				if opt.StopOnMiss {
					return finish(), nil
				}
			}
		}
		if now >= horizon {
			break
		}
		// Releases.
		for idx := range sorted {
			if nextRelease[idx] != now {
				continue
			}
			if active[idx] {
				rep.Misses = append(rep.Misses, now)
				rep.MissedTasks = append(rep.MissedTasks, idx)
				if opt.StopOnMiss {
					return finish(), nil
				}
			}
			gen[idx]++
			active[idx] = true
			preempted[idx] = false
			remaining[idx] = sorted[idx].C
			release[idx] = now
			rep.Released++
			nextRelease[idx] += sorted[idx].T
		}
		// Preemption/migration accounting: jobs that were running but are
		// not in the new top-m were displaced.
		nextRun = topM(nextRun, perm, active, gen, m)
		epoch++
		for _, s := range nextRun {
			stamp[s.idx] = epoch
		}
		for _, s := range run {
			switch idx := s.idx; {
			case doneGen[idx] == s.gen:
				// Completed.
			case gen[idx] != s.gen:
				// Replaced by its successor at an overrun.
				rep.Preemptions++
			case stamp[idx] != epoch:
				rep.Preemptions++
				preempted[idx] = true
			}
		}
		for _, s := range nextRun {
			if preempted[s.idx] {
				rep.Migrations++
				preempted[s.idx] = false
			}
		}
		run, nextRun = nextRun, run
	}
	// Incomplete jobs whose deadline fell inside the horizon.
	for idx := range sorted {
		if !active[idx] {
			continue
		}
		if deadline := release[idx] + sorted[idx].T; deadline <= horizon {
			rep.Misses = append(rep.Misses, deadline)
			rep.MissedTasks = append(rep.MissedTasks, idx)
		}
	}
	return finish(), nil
}

// topM refills buf with the jobs that run: the first m active tasks in
// priority order.
func topM(buf []slot, perm []int, active []bool, gen []int, m int) []slot {
	buf = buf[:0]
	for _, idx := range perm {
		if len(buf) == m {
			break
		}
		if active[idx] {
			buf = append(buf, slot{idx, gen[idx]})
		}
	}
	return buf
}

// SchedulableByUSBound reports whether the set is guaranteed schedulable
// by RM-US[m/(3m−2)] on m processors: U_M(τ) ≤ m/(3m−2) ([4]). This is the
// global fixed-priority guarantee the paper's partitioned bounds are
// measured against. The comparison is exact: the float error of a sum of a
// few hundred C/T terms is ≈ 1e-14, so a float utilization more than 1e-9
// from the bound decides, and one within 1e-9 of it is decided in
// rationals, ΣC_i/T_i ≤ m²/(3m−2).
func SchedulableByUSBound(ts task.Set, m int) bool {
	u, bound := ts.NormalizedUtilization(m), USBound(m)
	if math.Abs(u-bound) > 1e-9 {
		return u < bound
	}
	sum := new(big.Rat)
	for _, t := range ts {
		sum.Add(sum, big.NewRat(int64(t.C), int64(t.T)))
	}
	return sum.Cmp(big.NewRat(int64(m)*int64(m), int64(3*m-2))) <= 0
}

// DhallExample constructs the classic Dhall-effect witness scaled to m
// processors: m light tasks (C=1, T=periodLight) plus one near-100% task
// (C=T=periodLight·k+1 form). Under global RM the big task misses although
// the normalized utilization can be made arbitrarily small by growing m;
// under RM-US (or any partitioned algorithm in this repository) the set is
// trivially schedulable. periodLight must be at least 2.
func DhallExample(m int, periodLight task.Time) task.Set {
	if periodLight < 2 {
		panic("global: periodLight must be ≥ 2")
	}
	ts := make(task.Set, 0, m+1)
	for i := 0; i < m; i++ {
		ts = append(ts, task.Task{Name: fmt.Sprintf("light%d", i), C: 1, T: periodLight})
	}
	big := periodLight + 1
	ts = append(ts, task.Task{Name: "dhall", C: big, T: big})
	return ts
}

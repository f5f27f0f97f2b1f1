// Package sim is a discrete-event simulator for the execution model of the
// paper's §II: M processors, each running preemptive fixed-priority (RMS)
// scheduling over the (sub)tasks a partitioning algorithm assigned to it,
// with split tasks executing their fragments in precedence order across
// processors — fragment k+1 becomes ready exactly when fragment k
// completes, on whatever processor hosts it.
//
// The simulator is the repository's empirical oracle: a successful
// partitioning (Lemma 4) must never produce a deadline miss, and observed
// response times must stay below the RTA bounds. Time is integer ticks;
// all jobs of a task are released strictly periodically, synchronously at
// t = 0 by default (per-task offsets are supported for robustness tests).
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"strings"

	"repro/internal/task"
)

// Miss records a deadline miss.
type Miss struct {
	// Task is the RM-sorted index of the task whose job missed.
	Task int
	// Release is the absolute release time of the missed job.
	Release task.Time
	// At is the time the miss was detected (the absolute deadline, or the
	// late completion instant).
	At task.Time
}

func (m Miss) String() string {
	return fmt.Sprintf("task %d released at %d missed at %d", m.Task, m.Release, m.At)
}

// Report summarizes a simulation run.
type Report struct {
	// Horizon is the simulated duration in ticks.
	Horizon task.Time
	// Misses lists detected deadline misses (at most one when
	// StopOnMiss).
	Misses []Miss
	// Completed counts task jobs (full fragment chains) that completed.
	Completed int64
	// Released counts task jobs released.
	Released int64
	// Preemptions counts events where a running fragment was displaced by
	// a higher-priority arrival on its processor.
	Preemptions int64
	// WorstResponse maps task index to the largest observed job response
	// time (completion − release) over completed jobs.
	WorstResponse map[int]task.Time
	// WorstFragmentResponse maps task index to, per fragment part (1-based
	// position in the slice), the largest observed fragment response
	// relative to the *job's* release. Tail entries equal the job response.
	WorstFragmentResponse map[int][]task.Time
	// Busy accumulates executed ticks per processor (including charged
	// overheads).
	Busy []task.Time
	// Overhead accumulates the dispatch/migration overhead ticks charged.
	Overhead task.Time
	// Timeline, when Options.RecordTimeline is set, holds for each
	// processor and tick the index of the running task (-1 when idle), up
	// to Options.TimelineCap ticks.
	Timeline [][]int
}

// Gantt renders the recorded timeline as one text row per processor, one
// character per tick: 0-9 then a-z for task indices (# beyond 35), '.' for
// idle. Returns "" when no timeline was recorded.
func (r *Report) Gantt() string {
	if len(r.Timeline) == 0 {
		return ""
	}
	var b strings.Builder
	for q, row := range r.Timeline {
		fmt.Fprintf(&b, "P%-2d |", q)
		for _, idx := range row {
			b.WriteByte(taskGlyph(idx))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

func taskGlyph(idx int) byte {
	switch {
	case idx < 0:
		return '.'
	case idx < 10:
		return byte('0' + idx)
	case idx < 36:
		return byte('a' + idx - 10)
	default:
		return '#'
	}
}

// Ok reports whether the run saw no deadline miss.
func (r *Report) Ok() bool { return len(r.Misses) == 0 }

// Policy selects the per-processor scheduling policy.
type Policy int

const (
	// PolicyFP is preemptive fixed-priority scheduling (RM order via task
	// indices) — the paper's model.
	PolicyFP Policy = iota
	// PolicyEDF is preemptive earliest-deadline-first per processor, used
	// by the partitioned-EDF baselines. Split tasks are not supported
	// under EDF (the paper's splitting theory is fixed-priority).
	PolicyEDF
)

func (p Policy) String() string {
	switch p {
	case PolicyFP:
		return "FP"
	case PolicyEDF:
		return "EDF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures a simulation run.
type Options struct {
	// Policy selects the per-processor scheduler (default PolicyFP).
	Policy Policy
	// Horizon is the simulated duration. Zero means the task set's
	// hyperperiod, saturated and then capped by HorizonCap.
	Horizon task.Time
	// HorizonCap bounds the default hyperperiod horizon (ignored when
	// Horizon is set explicitly). Zero means 10_000_000 ticks.
	HorizonCap task.Time
	// Offsets optionally gives each task a first-release offset; nil means
	// synchronous release at 0 (the critical instant for uniprocessor RM).
	Offsets []task.Time
	// StopOnMiss aborts the run at the first detected deadline miss
	// (default behaviour when true). When false, the missed job's
	// remaining fragments are discarded and the simulation continues, so
	// all misses over the horizon are counted.
	StopOnMiss bool
	// DispatchOverhead charges this many ticks whenever a processor
	// switches to a different fragment job than it last dispatched (a
	// context switch). The paper's analysis assumes zero overhead, as is
	// standard; this knob supports the overhead-sensitivity experiment
	// that the related-work debate on splitting overheads motivates.
	DispatchOverhead task.Time
	// MigrationOverhead charges this many ticks when a split task's
	// fragment k ≥ 2 activates (its job state migrates to another
	// processor).
	MigrationOverhead task.Time
	// RecordTimeline enables Report.Timeline: a per-processor, per-tick
	// record of the running task, capped at TimelineCap ticks.
	RecordTimeline bool
	// TimelineCap bounds the recorded timeline length (zero: 512 ticks).
	TimelineCap task.Time
}

const defaultHorizonCap = 10_000_000

// Simulate runs the assignment under the model of §II and returns a report.
// The assignment must be structurally valid (task.Assignment.Validate);
// invalid input returns an error rather than panicking.
func Simulate(asg *task.Assignment, opt Options) (*Report, error) {
	if err := asg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid assignment: %w", err)
	}
	horizon := opt.Horizon
	if horizon <= 0 {
		hcap := opt.HorizonCap
		if hcap <= 0 {
			hcap = defaultHorizonCap
		}
		horizon = asg.Set.Hyperperiod()
		if horizon > hcap || horizon == math.MaxInt64 {
			horizon = hcap
		}
	}
	if opt.Offsets != nil && len(opt.Offsets) != len(asg.Set) {
		return nil, fmt.Errorf("sim: %d offsets for %d tasks", len(opt.Offsets), len(asg.Set))
	}
	// Under EDF, a fragment job's priority key is its own absolute window
	// deadline (release + true ready delay + window budget); see the
	// chainStage key computation below.

	s := newState(asg, opt, horizon)
	s.run()
	return s.report, nil
}

// chainStage locates one fragment of a task: the processor hosting it, its
// execution demand, and (for EDF) its relative window deadline from the
// job's release.
type chainStage struct {
	proc int
	c    task.Time
	part int
	// relDeadline is Offset + Deadline − (T − D_task): the fragment's
	// window end measured from the job's release (equals the task deadline
	// for whole tasks and fixed-priority chains).
	relDeadline task.Time
}

// job is an active fragment-job instance on a processor's ready queue.
type job struct {
	taskIdx   int
	stage     int // position in the fragment chain
	remaining task.Time
	release   task.Time // release time of the owning task job
	key       task.Time // primary ordering key: 0 under FP, absolute deadline under EDF
	index     int       // heap index
}

// procQueue is a priority heap of jobs: ordered by key (0 for every job
// under FP, the absolute deadline under EDF), ties broken by task index
// (RM priority under FP, a deterministic tie-break under EDF).
type procQueue []*job

func (q procQueue) Len() int { return len(q) }
func (q procQueue) Less(i, j int) bool {
	if q[i].key != q[j].key {
		return q[i].key < q[j].key
	}
	return q[i].taskIdx < q[j].taskIdx
}
func (q procQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *procQueue) Push(x interface{}) { j := x.(*job); j.index = len(*q); *q = append(*q, j) }
func (q *procQueue) Pop() interface{} {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

type state struct {
	asg     *task.Assignment
	opt     Options
	horizon task.Time
	report  *Report

	chains      [][]chainStage // per task, fragment chain in part order
	nextRelease []task.Time
	active      []*job // per task: the currently pending fragment job, nil if idle
	queues      []procQueue
	lastRunning []*job // per processor, for preemption accounting
	dispatched  []*job // per processor, last job charged a dispatch
	timelineCap task.Time
	now         task.Time
}

func newState(asg *task.Assignment, opt Options, horizon task.Time) *state {
	n := len(asg.Set)
	m := asg.M()
	s := &state{
		asg:     asg,
		opt:     opt,
		horizon: horizon,
		report: &Report{
			Horizon:               horizon,
			WorstResponse:         make(map[int]task.Time, n),
			WorstFragmentResponse: make(map[int][]task.Time, n),
			Busy:                  make([]task.Time, m),
		},
		chains:      make([][]chainStage, n),
		nextRelease: make([]task.Time, n),
		active:      make([]*job, n),
		queues:      make([]procQueue, m),
		lastRunning: make([]*job, m),
		dispatched:  make([]*job, m),
	}
	if opt.RecordTimeline {
		s.timelineCap = opt.TimelineCap
		if s.timelineCap <= 0 {
			s.timelineCap = 512
		}
		if s.timelineCap > horizon {
			s.timelineCap = horizon
		}
		s.report.Timeline = make([][]int, m)
		for q := range s.report.Timeline {
			row := make([]int, s.timelineCap)
			for t := range row {
				row[t] = -1
			}
			s.report.Timeline[q] = row
		}
	}
	for idx := range asg.Set {
		subs, procs := asg.Subtasks(idx)
		chain := make([]chainStage, len(subs))
		for k, sub := range subs {
			base := asg.Set[idx].T - asg.Set[idx].Deadline()
			chain[k] = chainStage{
				proc: procs[k], c: sub.C, part: sub.Part,
				relDeadline: sub.Offset + sub.Deadline - base,
			}
		}
		s.chains[idx] = chain
		if opt.Offsets != nil {
			s.nextRelease[idx] = opt.Offsets[idx]
		}
		s.report.WorstFragmentResponse[idx] = make([]task.Time, len(subs))
	}
	return s
}

func (s *state) run() {
	for s.now < s.horizon {
		s.chargeDispatches()
		next := s.nextEventTime()
		if next > s.horizon {
			next = s.horizon
		}
		s.advance(next - s.now)
		s.now = next
		if s.now >= s.horizon {
			// Completions landing exactly on the horizon still count.
			s.handleCompletions()
			break
		}
		if !s.handleCompletions() {
			return // stopped on miss
		}
		if !s.handleReleases() {
			return
		}
	}
	// Jobs whose absolute deadline falls within the horizon but are still
	// incomplete at the end are misses too.
	for idx, j := range s.active {
		if j == nil {
			continue
		}
		deadline := j.release + s.asg.Set[idx].Deadline()
		if deadline <= s.horizon {
			s.report.Misses = append(s.report.Misses, Miss{Task: idx, Release: j.release, At: deadline})
		}
	}
}

// nextEventTime returns the earliest future instant at which anything can
// change: a task release or the completion of a currently running fragment.
func (s *state) nextEventTime() task.Time {
	next := task.Time(math.MaxInt64)
	for idx := range s.nextRelease {
		if s.nextRelease[idx] > s.now && s.nextRelease[idx] < next {
			next = s.nextRelease[idx]
		}
		// A release exactly at s.now has been handled already.
		if s.nextRelease[idx] == s.now {
			next = s.now
			break
		}
	}
	for q := range s.queues {
		if len(s.queues[q]) == 0 {
			continue
		}
		if t := s.now + s.queues[q][0].remaining; t < next {
			next = t
		}
	}
	if next == math.MaxInt64 {
		return s.horizon
	}
	return next
}

// chargeDispatches applies the dispatch (context-switch) overhead: each
// processor whose highest-priority pending fragment differs from the one
// it last dispatched pays Options.DispatchOverhead, added to the incoming
// fragment's remaining demand.
func (s *state) chargeDispatches() {
	for q := range s.queues {
		if len(s.queues[q]) == 0 {
			continue
		}
		top := s.queues[q][0]
		if top == s.dispatched[q] {
			continue
		}
		s.dispatched[q] = top
		if s.opt.DispatchOverhead > 0 {
			top.remaining += s.opt.DispatchOverhead
			s.report.Overhead += s.opt.DispatchOverhead
		}
	}
}

// advance runs every processor's highest-priority pending fragment for
// delta ticks.
func (s *state) advance(delta task.Time) {
	if delta <= 0 {
		return
	}
	for q := range s.queues {
		if len(s.queues[q]) == 0 {
			continue
		}
		top := s.queues[q][0]
		if top.remaining < delta {
			panic("sim: running fragment overran its completion event")
		}
		top.remaining -= delta
		s.report.Busy[q] += delta
		if s.report.Timeline != nil && s.now < s.timelineCap {
			end := s.now + delta
			if end > s.timelineCap {
				end = s.timelineCap
			}
			for t := s.now; t < end; t++ {
				s.report.Timeline[q][t] = top.taskIdx
			}
		}
	}
}

// handleCompletions pops finished fragments, activating successors or
// completing jobs. Returns false if the run must stop (miss with
// StopOnMiss).
func (s *state) handleCompletions() bool {
	for q := range s.queues {
		for len(s.queues[q]) > 0 && s.queues[q][0].remaining == 0 {
			j := heap.Pop(&s.queues[q]).(*job)
			idx := j.taskIdx
			chain := s.chains[idx]
			resp := s.now - j.release
			if wfr := s.report.WorstFragmentResponse[idx]; resp > wfr[j.stage] {
				wfr[j.stage] = resp
			}
			if j.stage+1 < len(chain) {
				// Activate the successor fragment, possibly on another
				// processor; it may itself complete at this same instant
				// only if it has zero demand, which Validate excludes.
				succ := &job{taskIdx: idx, stage: j.stage + 1, remaining: chain[j.stage+1].c, release: j.release}
				if s.opt.Policy == PolicyEDF {
					succ.key = j.release + chain[j.stage+1].relDeadline
				}
				if s.opt.MigrationOverhead > 0 {
					succ.remaining += s.opt.MigrationOverhead
					s.report.Overhead += s.opt.MigrationOverhead
				}
				s.active[idx] = succ
				sp := chain[j.stage+1].proc
				var prevTop *job
				if len(s.queues[sp]) > 0 {
					prevTop = s.queues[sp][0]
				}
				heap.Push(&s.queues[sp], succ)
				if prevTop != nil && s.queues[sp][0] == succ && prevTop.remaining > 0 {
					s.report.Preemptions++
				}
				continue
			}
			// Whole job done.
			s.active[idx] = nil
			s.report.Completed++
			if resp > s.report.WorstResponse[idx] {
				s.report.WorstResponse[idx] = resp
			}
			deadline := j.release + s.asg.Set[idx].Deadline()
			if s.now > deadline {
				s.report.Misses = append(s.report.Misses, Miss{Task: idx, Release: j.release, At: s.now})
				if s.opt.StopOnMiss {
					return false
				}
			}
		}
	}
	return true
}

// handleReleases releases all jobs due at the current instant. A task whose
// previous job is still pending at its deadline (= this release instant)
// has missed; in continue mode the stale job is discarded. Returns false if
// the run must stop.
func (s *state) handleReleases() bool {
	for idx := range s.nextRelease {
		if s.nextRelease[idx] != s.now {
			continue
		}
		t := s.asg.Set[idx]
		if old := s.active[idx]; old != nil {
			s.report.Misses = append(s.report.Misses, Miss{Task: idx, Release: old.release, At: s.now})
			if s.opt.StopOnMiss {
				return false
			}
			// Discard the stale chain so the new job can run.
			q := s.chains[idx][old.stage].proc
			heap.Remove(&s.queues[q], old.index)
			s.active[idx] = nil
		}
		j := &job{taskIdx: idx, stage: 0, remaining: s.chains[idx][0].c, release: s.now}
		if s.opt.Policy == PolicyEDF {
			j.key = s.now + s.chains[idx][0].relDeadline
		}
		s.active[idx] = j
		proc := s.chains[idx][0].proc
		prevTop := (*job)(nil)
		if len(s.queues[proc]) > 0 {
			prevTop = s.queues[proc][0]
		}
		heap.Push(&s.queues[proc], j)
		if prevTop != nil && s.queues[proc][0] == j && prevTop.remaining > 0 {
			s.report.Preemptions++
		}
		s.report.Released++
		s.nextRelease[idx] += t.T
	}
	return true
}

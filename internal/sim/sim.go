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
	"fmt"
	"math"
	"strings"
	"sync"

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
	// Offsets optionally gives each task a non-negative first-release
	// offset; nil means synchronous release at 0 (the critical instant for
	// uniprocessor RM).
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
// invalid input, an offset list of the wrong length and a negative offset
// return an error rather than panicking.
//
// A task has at most one pending fragment job, so each task owns one
// reused job record, and the processors' ready queues are heaps of task
// indices. The working state comes from a pool: after set-up a run
// allocates only its Report, whatever the horizon (DESIGN.md, "Sweep
// kernels outside RTA").
func Simulate(asg *task.Assignment, opt Options) (*Report, error) {
	s := statePool.Get().(*state)
	defer s.recycle()
	if err := asg.ValidateIndexed(&s.index); err != nil {
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
	for idx, off := range opt.Offsets {
		if off < 0 {
			return nil, fmt.Errorf("sim: task %d has negative offset %d", idx, off)
		}
	}
	s.reset(asg, opt, horizon)
	s.run()
	return s.finish(), nil
}

// job is a task's pending fragment job. Each task reuses one record: a
// completed fragment's successor, and the next release, overwrite it.
type job struct {
	active    bool
	stage     int // position in the fragment chain
	remaining task.Time
	release   task.Time // release time of the owning task job
	key       task.Time // primary ordering key: 0 under FP, absolute deadline under EDF
	pos       int       // heap position in its processor's queue
	// serial names the fragment job: every release and every successor
	// activation draws a fresh one, so a processor pays the dispatch
	// overhead exactly when its top is a job it has not dispatched yet.
	serial uint64
}

type state struct {
	set     task.Set
	opt     Options
	horizon task.Time
	report  *Report

	index       task.FragmentIndex
	nextRelease []task.Time
	jobs        []job
	// queues[q] is processor q's ready queue: a binary heap of task
	// indices ordered by (job key, task index), so under FP the top is the
	// highest-priority pending fragment and under EDF the earliest window
	// deadline, ties to the higher priority.
	queues     [][]int
	dispatched []uint64 // per processor, serial of the last job charged a dispatch
	serial     uint64
	worst      []task.Time   // per task, the worst observed job response
	fragWorst  [][]task.Time // per task, the report's per-fragment worsts
	// minRelease is the earliest pending release; instants before it are
	// completions only and skip the per-task release scan.
	minRelease  task.Time
	timelineCap task.Time
	now         task.Time
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// recycle drops the run's references and returns the state to the pool;
// the buffers keep their capacity for the next run.
func (s *state) recycle() {
	s.set, s.report, s.opt = nil, nil, Options{}
	clear(s.fragWorst)
	statePool.Put(s)
}

// reset prepares the pooled state for a run of asg, whose fragment index
// s.index already holds. Only the report is newly allocated.
func (s *state) reset(asg *task.Assignment, opt Options, horizon task.Time) {
	n, m := len(asg.Set), asg.M()
	s.set, s.opt, s.horizon, s.now, s.serial = asg.Set, opt, horizon, 0, 0
	s.nextRelease = resize(s.nextRelease, n)
	s.jobs = resize(s.jobs, n)
	s.worst = resize(s.worst, n)
	s.fragWorst = resize(s.fragWorst, n)
	s.dispatched = resize(s.dispatched, m)
	if cap(s.queues) < m {
		grown := make([][]int, m)
		copy(grown, s.queues[:cap(s.queues)])
		s.queues = grown
	}
	s.queues = s.queues[:m]
	for q := range s.queues {
		s.queues[q] = s.queues[q][:0]
		s.dispatched[q] = 0
	}
	total := 0
	for idx := range asg.Set {
		total += len(s.index.Of(idx))
	}
	frags := make([]task.Time, total)
	s.report = &Report{
		Horizon: horizon,
		Busy:    make([]task.Time, m),
	}
	s.minRelease = math.MaxInt64
	for idx := range asg.Set {
		s.nextRelease[idx] = 0
		if opt.Offsets != nil {
			s.nextRelease[idx] = opt.Offsets[idx]
		}
		s.minRelease = min(s.minRelease, s.nextRelease[idx])
		s.jobs[idx] = job{}
		s.worst[idx] = 0
		k := len(s.index.Of(idx))
		s.fragWorst[idx], frags = frags[:k:k], frags[k:]
	}
	s.timelineCap = 0
	if opt.RecordTimeline {
		s.timelineCap = opt.TimelineCap
		if s.timelineCap <= 0 {
			s.timelineCap = 512
		}
		if s.timelineCap > horizon {
			s.timelineCap = horizon
		}
		cells := make([]int, int(s.timelineCap)*m)
		for t := range cells {
			cells[t] = -1
		}
		s.report.Timeline = make([][]int, m)
		for q := range s.report.Timeline {
			s.report.Timeline[q], cells = cells[:s.timelineCap:s.timelineCap], cells[s.timelineCap:]
		}
	}
}

// finish copies the per-task worsts into the report's maps.
func (s *state) finish() *Report {
	rep := s.report
	rep.WorstResponse = make(map[int]task.Time, len(s.worst))
	rep.WorstFragmentResponse = make(map[int][]task.Time, len(s.fragWorst))
	for idx, w := range s.worst {
		if w > 0 {
			rep.WorstResponse[idx] = w
		}
		rep.WorstFragmentResponse[idx] = s.fragWorst[idx]
	}
	return rep
}

// resize returns buf with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (s *state) run() {
	for s.now < s.horizon {
		next, finished := s.dispatchAndNextEvent()
		if next > s.horizon {
			next = s.horizon
		}
		// Completions are due only where a top has no demand left: one that
		// finishes now, or one that surfaced already finished (see
		// dispatchAndNextEvent).
		completed := s.advance(next-s.now) || finished
		s.now = next
		if s.now >= s.horizon {
			// Completions landing exactly on the horizon still count.
			if completed {
				s.handleCompletions()
			}
			break
		}
		if completed && !s.handleCompletions() {
			return // stopped on miss
		}
		if s.minRelease == s.now && !s.handleReleases() {
			return
		}
	}
	// Jobs whose absolute deadline falls within the horizon but are still
	// incomplete at the end are misses too.
	for idx := range s.jobs {
		j := &s.jobs[idx]
		if !j.active {
			continue
		}
		deadline := j.release + s.set[idx].Deadline()
		if deadline <= s.horizon {
			s.report.Misses = append(s.report.Misses, Miss{Task: idx, Release: j.release, At: deadline})
		}
	}
}

// dispatchAndNextEvent applies the dispatch (context-switch) overhead and
// returns the earliest future instant at which anything can change: a
// task release or the completion of a running fragment. A processor whose
// highest-priority pending fragment differs from the one it last
// dispatched pays Options.DispatchOverhead, added to the incoming
// fragment's remaining demand before its completion time is read.
//
// finished reports a top with no demand left. That happens when a
// fragment finishes at the same instant as a higher-priority successor
// fragment is queued on its processor, before handleCompletions reaches
// that processor: the finished job stays queued under the successor and
// is popped only when it surfaces again.
func (s *state) dispatchAndNextEvent() (next task.Time, finished bool) {
	next = math.MaxInt64
	if s.minRelease >= s.now {
		next = s.minRelease
	}
	for q, queue := range s.queues {
		if len(queue) == 0 {
			continue
		}
		top := &s.jobs[queue[0]]
		if top.serial != s.dispatched[q] {
			s.dispatched[q] = top.serial
			if s.opt.DispatchOverhead > 0 {
				top.remaining += s.opt.DispatchOverhead
				s.report.Overhead += s.opt.DispatchOverhead
			}
		}
		finished = finished || top.remaining == 0
		if t := s.now + top.remaining; t < next {
			next = t
		}
	}
	if next == math.MaxInt64 {
		return s.horizon, finished
	}
	return next, finished
}

// advance runs every processor's highest-priority pending fragment for
// delta ticks and reports whether any of them finished.
func (s *state) advance(delta task.Time) (completed bool) {
	if delta <= 0 {
		return false
	}
	for q, queue := range s.queues {
		if len(queue) == 0 {
			continue
		}
		top := &s.jobs[queue[0]]
		if top.remaining < delta {
			panic("sim: running fragment overran its completion event")
		}
		top.remaining -= delta
		completed = completed || top.remaining == 0
		s.report.Busy[q] += delta
		if s.report.Timeline != nil && s.now < s.timelineCap {
			end := s.now + delta
			if end > s.timelineCap {
				end = s.timelineCap
			}
			row := s.report.Timeline[q]
			for t := s.now; t < end; t++ {
				row[t] = queue[0]
			}
		}
	}
	return completed
}

// activate makes stage the pending fragment job of task idx, released at
// release, and queues it on its processor, counting a preemption when it
// displaces a running fragment there.
func (s *state) activate(idx, stage int, release task.Time) {
	frag := &s.index.Of(idx)[stage]
	s.serial++
	j := &s.jobs[idx]
	*j = job{active: true, stage: stage, remaining: frag.Sub.C, release: release, serial: s.serial}
	if s.opt.Policy == PolicyEDF {
		// The fragment's window end from the job's release: its offset
		// plus synthetic deadline, less the task's T − D.
		t := s.set[idx]
		j.key = release + frag.Sub.Offset + frag.Sub.Deadline - (t.T - t.Deadline())
	}
	if stage > 0 && s.opt.MigrationOverhead > 0 {
		j.remaining += s.opt.MigrationOverhead
		s.report.Overhead += s.opt.MigrationOverhead
	}
	q := frag.Proc
	prevTop := -1
	if len(s.queues[q]) > 0 {
		prevTop = s.queues[q][0]
	}
	s.push(q, idx)
	if prevTop >= 0 && s.queues[q][0] == idx && s.jobs[prevTop].remaining > 0 {
		s.report.Preemptions++
	}
}

// handleCompletions pops finished fragments, activating successors or
// completing jobs. Returns false if the run must stop (miss with
// StopOnMiss).
func (s *state) handleCompletions() bool {
	for q := range s.queues {
		for len(s.queues[q]) > 0 && s.jobs[s.queues[q][0]].remaining == 0 {
			idx := s.pop(q)
			j := &s.jobs[idx]
			resp := s.now - j.release
			if wfr := s.fragWorst[idx]; resp > wfr[j.stage] {
				wfr[j.stage] = resp
			}
			if j.stage+1 < len(s.fragWorst[idx]) {
				// Activate the successor fragment, possibly on another
				// processor; it may itself complete at this same instant
				// only if it has zero demand, which Validate excludes.
				s.activate(idx, j.stage+1, j.release)
				continue
			}
			// Whole job done.
			j.active = false
			s.report.Completed++
			if resp > s.worst[idx] {
				s.worst[idx] = resp
			}
			deadline := j.release + s.set[idx].Deadline()
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

// handleReleases releases all jobs due at the current instant and finds the
// next release instant. A task whose previous job is still pending at its
// deadline (= this release instant) has missed; in continue mode the stale
// job is discarded. Returns false if the run must stop.
func (s *state) handleReleases() bool {
	s.minRelease = math.MaxInt64
	for idx := range s.nextRelease {
		if s.nextRelease[idx] == s.now {
			if old := &s.jobs[idx]; old.active {
				s.report.Misses = append(s.report.Misses, Miss{Task: idx, Release: old.release, At: s.now})
				if s.opt.StopOnMiss {
					return false
				}
				// Discard the stale chain so the new job can run.
				s.remove(s.index.Of(idx)[old.stage].Proc, old.pos)
			}
			s.activate(idx, 0, s.now)
			s.report.Released++
			s.nextRelease[idx] += s.set[idx].T
		}
		// A release pushed past math.MaxInt64 wraps below now and, as it
		// can never equal a later instant, is never due again.
		if r := s.nextRelease[idx]; r >= s.now && r < s.minRelease {
			s.minRelease = r
		}
	}
	return true
}

// The ready-queue heap: container/heap's sift algorithms over task
// indices, ordered by (job key, task index), each job tracking its
// position. The order is total over a queue's distinct tasks, so the top
// is the same whatever the heap's internal layout.

func (s *state) less(a, b int) bool {
	if ka, kb := s.jobs[a].key, s.jobs[b].key; ka != kb {
		return ka < kb
	}
	return a < b
}

func (s *state) swap(h []int, i, j int) {
	h[i], h[j] = h[j], h[i]
	s.jobs[h[i]].pos = i
	s.jobs[h[j]].pos = j
}

func (s *state) up(h []int, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(h[j], h[i]) {
			break
		}
		s.swap(h, i, j)
		j = i
	}
}

func (s *state) down(h []int, i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(h[j2], h[j1]) {
			j = j2 // = 2*i + 2  // right child
		}
		if !s.less(h[j], h[i]) {
			break
		}
		s.swap(h, i, j)
		i = j
	}
	return i > i0
}

func (s *state) push(q, idx int) {
	h := append(s.queues[q], idx)
	s.queues[q] = h
	s.jobs[idx].pos = len(h) - 1
	s.up(h, len(h)-1)
}

func (s *state) pop(q int) int {
	h := s.queues[q]
	n := len(h) - 1
	s.swap(h, 0, n)
	s.down(h, 0, n)
	s.queues[q] = h[:n]
	return h[n]
}

func (s *state) remove(q, i int) {
	h := s.queues[q]
	n := len(h) - 1
	if n != i {
		s.swap(h, i, n)
		if !s.down(h, i, n) {
			s.up(h, i)
		}
	}
	s.queues[q] = h[:n]
}

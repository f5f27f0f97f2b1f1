package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/task"
)

// subtasksReference is the rescan-and-sort Assignment.Subtasks that the
// fragment index replaced: every processor is scanned for task idx and
// the hits are sorted by part.
func subtasksReference(a *task.Assignment, idx int) (subs []task.Subtask, procs []int) {
	type frag struct {
		s task.Subtask
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

// simulateReference is the simulator Simulate replaced, kept verbatim as
// its oracle (FuzzSimVsReference): a container/heap ready queue of *refJob
// per processor, a fresh job per fragment activation with dispatch
// identity by pointer, per-task chains rebuilt by a rescan of every
// processor, and an O(n) release scan at every event. Only its names
// changed, and it reads chains through subtasksReference, the rescan that
// Assignment.Subtasks performed.
func simulateReference(asg *task.Assignment, opt Options) (*Report, error) {
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
	// refStage key computation below.

	s := newRefState(asg, opt, horizon)
	s.run()
	return s.report, nil
}

// refStage locates one fragment of a task: the processor hosting it, its
// execution demand, and (for EDF) its relative window deadline from the
// job's release.
type refStage struct {
	proc int
	c    task.Time
	part int
	// relDeadline is Offset + Deadline − (T − D_task): the fragment's
	// window end measured from the job's release (equals the task deadline
	// for whole tasks and fixed-priority chains).
	relDeadline task.Time
}

// job is an active fragment-job instance on a processor's ready queue.
type refJob struct {
	taskIdx   int
	stage     int // position in the fragment chain
	remaining task.Time
	release   task.Time // release time of the owning task job
	key       task.Time // primary ordering key: 0 under FP, absolute deadline under EDF
	index     int       // heap index
}

// refQueue is a priority heap of jobs: ordered by key (0 for every job
// under FP, the absolute deadline under EDF), ties broken by task index
// (RM priority under FP, a deterministic tie-break under EDF).
type refQueue []*refJob

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].key != q[j].key {
		return q[i].key < q[j].key
	}
	return q[i].taskIdx < q[j].taskIdx
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *refQueue) Push(x interface{}) { j := x.(*refJob); j.index = len(*q); *q = append(*q, j) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

type refState struct {
	asg     *task.Assignment
	opt     Options
	horizon task.Time
	report  *Report

	chains      [][]refStage // per task, fragment chain in part order
	nextRelease []task.Time
	active      []*refJob // per task: the currently pending fragment job, nil if idle
	queues      []refQueue
	lastRunning []*refJob // per processor, for preemption accounting
	dispatched  []*refJob // per processor, last job charged a dispatch
	timelineCap task.Time
	now         task.Time
}

func newRefState(asg *task.Assignment, opt Options, horizon task.Time) *refState {
	n := len(asg.Set)
	m := asg.M()
	s := &refState{
		asg:     asg,
		opt:     opt,
		horizon: horizon,
		report: &Report{
			Horizon:               horizon,
			WorstResponse:         make(map[int]task.Time, n),
			WorstFragmentResponse: make(map[int][]task.Time, n),
			Busy:                  make([]task.Time, m),
		},
		chains:      make([][]refStage, n),
		nextRelease: make([]task.Time, n),
		active:      make([]*refJob, n),
		queues:      make([]refQueue, m),
		lastRunning: make([]*refJob, m),
		dispatched:  make([]*refJob, m),
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
		subs, procs := subtasksReference(asg, idx)
		chain := make([]refStage, len(subs))
		for k, sub := range subs {
			base := asg.Set[idx].T - asg.Set[idx].Deadline()
			chain[k] = refStage{
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

func (s *refState) run() {
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
func (s *refState) nextEventTime() task.Time {
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
func (s *refState) chargeDispatches() {
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
func (s *refState) advance(delta task.Time) {
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
func (s *refState) handleCompletions() bool {
	for q := range s.queues {
		for len(s.queues[q]) > 0 && s.queues[q][0].remaining == 0 {
			j := heap.Pop(&s.queues[q]).(*refJob)
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
				succ := &refJob{taskIdx: idx, stage: j.stage + 1, remaining: chain[j.stage+1].c, release: j.release}
				if s.opt.Policy == PolicyEDF {
					succ.key = j.release + chain[j.stage+1].relDeadline
				}
				if s.opt.MigrationOverhead > 0 {
					succ.remaining += s.opt.MigrationOverhead
					s.report.Overhead += s.opt.MigrationOverhead
				}
				s.active[idx] = succ
				sp := chain[j.stage+1].proc
				var prevTop *refJob
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
func (s *refState) handleReleases() bool {
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
		j := &refJob{taskIdx: idx, stage: 0, remaining: s.chains[idx][0].c, release: s.now}
		if s.opt.Policy == PolicyEDF {
			j.key = s.now + s.chains[idx][0].relDeadline
		}
		s.active[idx] = j
		proc := s.chains[idx][0].proc
		prevTop := (*refJob)(nil)
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

// decodeSimCase builds a split assignment and simulation options from
// data. The first byte picks M (1–4) and the task count (1–6); the second
// the policy, StopOnMiss, timeline recording, offsets and whether the
// horizon is explicit or a capped hyperperiod; the third and fourth the
// dispatch and migration overheads (0–3) and the horizon (1–2048). Each
// task then takes 4 bytes: period, execution share, deadline share, and a
// fragment count (1–3) with its first processor; a fifth byte is its
// offset when offsets are on. Chains sit on consecutive processors with
// offsets growing by each fragment's C plus a little slack, so both
// feasible and overloaded sets, whole and split, come out valid. A
// trailing byte below 32 moves one fragment's C by −1, 0 or +1 so that
// invalid assignments reach both simulators too.
func decodeSimCase(data []byte) (*task.Assignment, Options, bool) {
	if len(data) < 4 {
		return nil, Options{}, false
	}
	m, n := 1+int(data[0]%4), 1+int(data[0]/4%6)
	flags := data[1]
	opt := Options{
		Policy:            Policy(flags % 2),
		StopOnMiss:        flags&2 != 0,
		RecordTimeline:    flags&4 != 0,
		DispatchOverhead:  task.Time(data[2] % 4),
		MigrationOverhead: task.Time(data[2] / 4 % 4),
	}
	horizon := 1 + task.Time(data[3])*8 + task.Time(data[2]/16)
	if flags&16 != 0 {
		opt.Horizon = horizon
	} else {
		opt.HorizonCap = horizon
	}
	if opt.RecordTimeline {
		opt.TimelineCap = task.Time(data[2]) * 3
	}
	withOffsets := flags&8 != 0
	data = data[4:]
	per := 4
	if withOffsets {
		per = 5
	}
	if len(data) < per*n {
		return nil, Options{}, false
	}
	set := make(task.Set, n)
	for i := range set {
		b := data[per*i:]
		T := task.Time(4 + int(b[0])%60)
		c := max(T*task.Time(b[1])/256, 1)
		set[i] = task.Task{C: c, T: T, D: c + (T-c)*task.Time(b[2])/255}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if set[order[a]].Deadline() != set[order[b]].Deadline() {
			return set[order[a]].Deadline() < set[order[b]].Deadline()
		}
		return set[order[a]].T < set[order[b]].T
	})
	sorted := make(task.Set, n)
	for k, i := range order {
		sorted[k] = set[i]
	}
	if withOffsets {
		opt.Offsets = make([]task.Time, n)
	}
	a := task.NewAssignment(sorted, m)
	for k, i := range order {
		b := data[per*i:]
		t := sorted[k]
		parts := min(1+int(b[3]%3), m, int(t.C))
		q := int(b[3]/3) % m
		offset := t.T - t.Deadline()
		left := t.C
		for part := 1; part <= parts; part++ {
			c := left / task.Time(parts-part+1)
			left -= c
			a.Add((q+part-1)%m, task.Subtask{TaskIndex: k, Part: part, C: c, T: t.T,
				Deadline: t.T - offset, Offset: offset, Tail: part == parts})
			// Slack past the predecessor's C models a response-based offset
			// (RM-TS phase 3), as long as the next fragment still fits.
			offset += c + min(task.Time(b[3]/32), t.T-offset-c-left)
		}
		if withOffsets {
			opt.Offsets[k] = task.Time(b[4]) % (2 * t.T)
		}
	}
	if rest := data[per*n:]; len(rest) > 0 && rest[0] < 32 {
		if list := a.Procs[int(rest[0])%m]; len(list) > 0 {
			list[int(rest[0]/4)%len(list)].C += 1 - task.Time(rest[0]%3)
		}
	}
	return a, opt, true
}

// checkSimVsReference requires Simulate and the reference to return equal
// reports (every field: the maps, Busy, Overhead, Preemptions, Timeline)
// and equal errors.
func checkSimVsReference(t *testing.T, a *task.Assignment, opt Options) {
	t.Helper()
	got, gotErr := Simulate(a, opt)
	want, wantErr := simulateReference(a, opt)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, reference %v\n%s", gotErr, wantErr, a)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("options %+v\n%s\nreport   %+v\nreference %+v", opt, a, got, want)
	}
}

// FuzzSimVsReference pins Simulate to the simulator it replaced: RM and
// EDF, split chains, offsets, StopOnMiss both ways, dispatch and migration
// overheads, explicit and capped horizons, timelines, and invalid
// assignments all give equal reports and equal errors.
func FuzzSimVsReference(f *testing.F) {
	f.Add([]byte{0x05, 0x00, 0x00, 50, 20, 60, 255, 3, 40, 90, 255, 0})
	f.Add([]byte{0x0d, 0x12, 0x05, 30, 20, 200, 255, 4, 40, 120, 255, 2, 10, 100, 200, 0})
	f.Add([]byte{0x0d, 0x13, 0x25, 30, 20, 200, 255, 4, 40, 120, 255, 2, 10, 100, 200, 0})
	f.Add([]byte{0x16, 0x1e, 0xf3, 90, 6, 240, 128, 66, 1, 16, 90, 80, 3, 11, 7, 60, 255, 2, 9, 30, 70, 99, 5, 3, 0})
	f.Add([]byte{0x07, 0x06, 0x81, 20, 10, 255, 255, 5, 10, 255, 255, 5, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) {
		if a, opt, ok := decodeSimCase(data); ok {
			checkSimVsReference(t, a, opt)
		}
	})
}

func TestSimulateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	split := 0
	for i := 0; i < 3000; i++ {
		data := make([]byte, 4+5*(1+r.Intn(6))+r.Intn(2))
		r.Read(data)
		a, opt, ok := decodeSimCase(data)
		if !ok {
			continue
		}
		checkSimVsReference(t, a, opt)
		if len(a.SplitTasks()) > 0 {
			split++
		}
	}
	if split < 300 {
		t.Errorf("only %d of 3000 cases split a task", split)
	}
}

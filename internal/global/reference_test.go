package global

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/task"
)

type gjob struct {
	taskIdx   int
	prio      int // position in the priority permutation: lower runs first
	remaining task.Time
	release   task.Time
	preempted bool // has been displaced at least once
	index     int
}

type gqueue []*gjob

func (q gqueue) Len() int            { return len(q) }
func (q gqueue) Less(i, j int) bool  { return q[i].prio < q[j].prio }
func (q gqueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *gqueue) Push(x interface{}) { j := x.(*gjob); j.index = len(*q); *q = append(*q, j) }
func (q *gqueue) Pop() interface{} {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// simulateReference is the heap-based simulator Simulate replaced, kept
// verbatim as its oracle: a container/heap ready queue of *gjob, the
// running set peeled off the heap per event and a per-event map for the
// preemption/migration accounting.
func simulateReference(ts task.Set, m int, opt Options) (*Report, error) {
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
	prioOf := make([]int, len(sorted))
	for k, idx := range perm {
		prioOf[idx] = k
	}

	rep := &Report{Horizon: horizon, WorstResponse: make(map[int]task.Time, len(sorted))}
	ready := gqueue{}
	active := make([]*gjob, len(sorted))
	nextRelease := make([]task.Time, len(sorted))
	now := task.Time(0)

	running := func() []*gjob {
		// The m highest-priority ready jobs run. Peeling the heap is O(m
		// log n) per event; n and m are small here.
		k := m
		if len(ready) < k {
			k = len(ready)
		}
		out := make([]*gjob, 0, k)
		var tmp []*gjob
		for len(out) < k {
			j := heap.Pop(&ready).(*gjob)
			out = append(out, j)
			tmp = append(tmp, j)
		}
		for _, j := range tmp {
			heap.Push(&ready, j)
		}
		return out
	}

	for now < horizon {
		run := running()
		next := task.Time(math.MaxInt64)
		for idx := range sorted {
			if nextRelease[idx] > now && nextRelease[idx] < next {
				next = nextRelease[idx]
			} else if nextRelease[idx] == now {
				next = now
			}
		}
		for _, j := range run {
			if t := now + j.remaining; t < next {
				next = t
			}
		}
		if next == math.MaxInt64 || next > horizon {
			next = horizon
		}
		delta := next - now
		for _, j := range run {
			j.remaining -= delta
		}
		now = next
		// Completions (before releases at the same instant).
		for _, j := range run {
			if j.remaining > 0 {
				continue
			}
			heap.Remove(&ready, j.index)
			active[j.taskIdx] = nil
			rep.Completed++
			resp := now - j.release
			if resp > rep.WorstResponse[j.taskIdx] {
				rep.WorstResponse[j.taskIdx] = resp
			}
			if deadline := j.release + sorted[j.taskIdx].T; now > deadline {
				rep.Misses = append(rep.Misses, now)
				rep.MissedTasks = append(rep.MissedTasks, j.taskIdx)
				if opt.StopOnMiss {
					return rep, nil
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
			if old := active[idx]; old != nil {
				rep.Misses = append(rep.Misses, now)
				rep.MissedTasks = append(rep.MissedTasks, idx)
				if opt.StopOnMiss {
					return rep, nil
				}
				heap.Remove(&ready, old.index)
				active[idx] = nil
			}
			j := &gjob{taskIdx: idx, prio: prioOf[idx], remaining: sorted[idx].C, release: now}
			active[idx] = j
			heap.Push(&ready, j)
			rep.Released++
			nextRelease[idx] += sorted[idx].T
		}
		// Preemption/migration accounting: jobs that were running but are
		// not in the new top-m were displaced.
		newRun := map[*gjob]bool{}
		for _, j := range running() {
			newRun[j] = true
		}
		for _, j := range run {
			if j.remaining > 0 && !newRun[j] {
				rep.Preemptions++
				j.preempted = true
			}
		}
		for j := range newRun {
			if j.preempted {
				rep.Migrations++
				j.preempted = false
			}
		}
	}
	// Incomplete jobs whose deadline fell inside the horizon.
	for idx, j := range active {
		if j == nil {
			continue
		}
		if deadline := j.release + sorted[idx].T; deadline <= horizon {
			rep.Misses = append(rep.Misses, deadline)
			rep.MissedTasks = append(rep.MissedTasks, idx)
		}
	}
	return rep, nil
}

// decodeGlobalCase turns fuzz bytes into a task set of 1–12 implicit-
// deadline tasks (two bytes each: period 2–61, then C in 1..T), so the
// decoder reaches both schedulable sets and heavy overloads.
func decodeGlobalCase(data []byte) task.Set {
	var ts task.Set
	for len(data) >= 2 && len(ts) < 12 {
		t := task.Time(2 + int(data[0])%60)
		c := task.Time(1 + int(data[1])%int(t))
		ts = append(ts, task.Task{Name: fmt.Sprintf("t%d", len(ts)), C: c, T: t})
		data = data[2:]
	}
	if len(ts) == 0 {
		ts = task.Set{{Name: "t0", C: 1, T: 2}}
	}
	return ts
}

// checkGlobalVsReference fails t unless Simulate and simulateReference
// return deeply equal reports and equal errors.
func checkGlobalVsReference(t *testing.T, ts task.Set, m int, opt Options) {
	t.Helper()
	got, gotErr := Simulate(ts, m, opt)
	want, wantErr := simulateReference(ts, m, opt)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("m=%d opt=%+v set=%v: error %v, reference %v", m, opt, ts, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("m=%d opt=%+v set=%v:\n got %+v\nwant %+v", m, opt, ts, got, want)
	}
}

func FuzzGlobalSimVsReference(f *testing.F) {
	f.Add(uint8(2), false, true, uint16(0), uint16(120), []byte{4, 2, 4, 2, 10, 3})
	f.Add(uint8(2), false, false, uint16(0), uint16(100), []byte{8, 8, 8, 8, 8, 8})
	f.Add(uint8(3), false, false, uint16(0), uint16(0), []byte("1\x01\x05\xc8\t\t\rd;;\x02\x02\a\a"))
	f.Add(uint8(1), true, false, uint16(500), uint16(0), []byte{18, 7, 38, 30, 58, 11, 3, 3})
	f.Add(uint8(4), true, true, uint16(300), uint16(0), []byte{48, 47, 48, 1, 48, 1, 48, 1, 48, 1})
	f.Add(uint8(3), false, false, uint16(64), uint16(0), []byte{1, 1, 5, 200, 9, 9, 13, 100, 59, 59, 2, 2, 7, 7})
	f.Fuzz(func(t *testing.T, m uint8, rmus, stop bool, hcap, horizon uint16, data []byte) {
		policy := RM
		if rmus {
			policy = RMUS
		}
		opt := Options{Policy: policy, StopOnMiss: stop,
			Horizon: task.Time(horizon % 2000), HorizonCap: 1 + task.Time(hcap%2000)}
		checkGlobalVsReference(t, decodeGlobalCase(data), 1+int(m%4), opt)
	})
}

func TestSimulateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 2*(1+r.Intn(12)))
		r.Read(data)
		opt := Options{Policy: Policy(r.Intn(2)), StopOnMiss: r.Intn(2) == 0}
		if r.Intn(2) == 0 {
			opt.Horizon = task.Time(1 + r.Intn(1500))
		} else {
			opt.HorizonCap = task.Time(1 + r.Intn(1500))
		}
		checkGlobalVsReference(t, decodeGlobalCase(data), 1+r.Intn(4), opt)
	}
}

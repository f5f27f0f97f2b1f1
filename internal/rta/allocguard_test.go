package rta

import (
	"math/rand"
	"testing"

	"repro/internal/task"
)

// Alloc guards: the ProcState probe paths must not allocate once their
// buffers are warm. These pins back the zero-allocation hot-path contract —
// a regression here silently reintroduces per-sample garbage across every
// experiment sweep. Run with `go test -run AllocGuard ./...`.

func guardList(seed int64, n int) []task.Subtask {
	r := rand.New(rand.NewSource(seed))
	list := make([]task.Subtask, 0, n)
	for i := 0; i < n; i++ {
		T := task.Time(100 + r.Intn(9900))
		C := task.Time(1 + r.Intn(int(T)/12))
		list = append(list, task.Subtask{TaskIndex: i, Part: 1, C: C, T: T, Deadline: T, Tail: true})
	}
	return list
}

func TestAllocGuardProcStateAdmitRemoveCycle(t *testing.T) {
	list := guardList(9, 8)
	var states []ProcState
	states = ResetProcStates(states, 1, 0)
	ps := &states[0]
	for _, s := range list {
		if ps.AdmitAt(s.TaskIndex, s.C, s.T, s.Deadline) {
			ps.Insert(s)
		}
	}
	// A mid-priority churn candidate so the cycle exercises both the
	// warm-started probes below the insertion point and Remove's cache
	// invalidation of exactly those positions.
	cand := task.Subtask{TaskIndex: 3, Part: 1, C: 1, T: 5000, Deadline: 5000, Tail: true}
	if !ps.AdmitAt(cand.TaskIndex, cand.C, cand.T, cand.Deadline) {
		t.Fatal("churn candidate unexpectedly rejected; guard would not exercise the cycle")
	}
	ps.Remove(ps.Insert(cand)) // warm the buffers through one full cycle
	cycle := func() {
		if ps.AdmitAt(cand.TaskIndex, cand.C, cand.T, cand.Deadline) {
			ps.Remove(ps.Insert(cand))
		}
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if allocs != 0 {
		t.Errorf("warm ProcState admit/remove cycle: %v allocs/run, want 0", allocs)
	}
}

func TestAllocGuardProcStateProbe(t *testing.T) {
	list := guardList(7, 10)
	var states []ProcState
	states = ResetProcStates(states, 1, 0)
	probe := func() {
		ps := &states[0]
		ps.Reset(0)
		for _, s := range list {
			if ps.AdmitAt(s.TaskIndex, s.C, s.T, s.Deadline) {
				ps.Insert(s)
			}
		}
	}
	probe() // warm the interference/deadline/response arrays
	allocs := testing.AllocsPerRun(200, probe)
	if allocs != 0 {
		t.Errorf("warm ProcState admit/insert cycle: %v allocs/run, want 0", allocs)
	}
}

func TestAllocGuardSlackAtMost(t *testing.T) {
	list := guardList(11, 10)
	var states []ProcState
	states = ResetProcStates(states, 1, 0)
	ps := &states[0]
	for _, s := range list {
		if ps.AdmitAt(s.TaskIndex, s.C, s.T, s.Deadline) {
			ps.Insert(s)
		}
	}
	scan := func() {
		for i := 0; i < ps.Len(); i++ {
			_ = ps.SlackAtMost(i, 777, 50)
		}
	}
	scan() // warm the merged-enumeration frontier buffer
	allocs := testing.AllocsPerRun(200, scan)
	if allocs != 0 {
		t.Errorf("warm SlackAtMost scan: %v allocs/run, want 0", allocs)
	}
}

package split

import (
	"math/rand"
	"testing"

	"repro/internal/rta"
	"repro/internal/task"
)

// Alloc guards for the splitting hot path: MaxPortionScratch with a warm
// mirror buffer and MaxPortionState on a warm ProcState must not
// allocate. Run with `go test -run AllocGuard ./...`.

func TestAllocGuardMaxPortionScratch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var list []task.Subtask
	for {
		n := 4 + r.Intn(5)
		list = list[:0]
		for i := 0; i < n; i++ {
			T := task.Time(100 + r.Intn(5000))
			C := task.Time(1 + r.Intn(int(T)/6))
			list = append(list, task.Subtask{TaskIndex: i + 1, Part: 1, C: C, T: T, Deadline: T, Tail: true})
		}
		if rta.ProcessorSchedulable(list) {
			break
		}
	}
	period := task.Time(700)
	var buf []task.Time
	_, buf = MaxPortionScratch(list, period, period, period, buf) // warm
	allocs := testing.AllocsPerRun(200, func() {
		_, buf = MaxPortionScratch(list, period, period, period, buf)
	})
	if allocs != 0 {
		t.Errorf("MaxPortionScratch with warm buffer: %v allocs/run, want 0", allocs)
	}
}

func TestAllocGuardMaxPortionState(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ps := &rta.ProcState{}
	ps.Reset(0)
	for i := 0; i < 6; i++ {
		T := task.Time(200 + r.Intn(4000))
		C := task.Time(1 + r.Intn(int(T)/8))
		ps.Insert(task.Subtask{TaskIndex: i, Part: 1, C: C, T: T, Deadline: T, Tail: true})
	}
	period := task.Time(900)
	prio := ps.Len()                                  // lowest priority: candidate goes below all residents
	MaxPortionState(ps, prio, period, period, period) // warm
	allocs := testing.AllocsPerRun(200, func() {
		MaxPortionState(ps, prio, period, period, period)
	})
	if allocs != 0 {
		t.Errorf("MaxPortionState on warm ProcState: %v allocs/run, want 0", allocs)
	}
}

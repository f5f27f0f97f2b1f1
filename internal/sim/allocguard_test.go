// The race detector makes sync.Pool drop items at random, so a run takes
// a fresh working state a varying number of times under -race; these
// counts are meaningful only in a normal build.

//go:build !race

package sim

import (
	"testing"

	"repro/internal/task"
)

// The partitioned simulator allocates only its Report: the working state
// comes from a pool and the per-event work reuses it, so the allocation
// count does not depend on the horizon. Run with
// `go test -run AllocGuard ./...`.

// guardAssignment hosts a split chain and four whole tasks on two
// processors, schedulable under RM (each processor at U ≈ 0.7), so a long
// run records no misses and the report grows only in its counters.
func guardAssignment() *task.Assignment {
	set := task.Set{
		{Name: "a", C: 2, T: 7},
		{Name: "b", C: 3, T: 11},
		{Name: "c", C: 2, T: 13},
		{Name: "d", C: 2, T: 17},
		{Name: "w", C: 4, T: 19},
	}
	a := task.NewAssignment(set, 2)
	a.Add(0, task.Whole(0, set[0]))
	a.Add(0, task.Whole(2, set[2]))
	a.Add(1, task.Whole(1, set[1]))
	a.Add(1, task.Whole(3, set[3]))
	a.Add(0, task.Subtask{TaskIndex: 4, Part: 1, C: 2, T: 19, Deadline: 19, Offset: 0})
	a.Add(1, task.Subtask{TaskIndex: 4, Part: 2, C: 2, T: 19, Deadline: 11, Offset: 8, Tail: true})
	return a
}

func TestAllocGuardSimulate(t *testing.T) {
	a := guardAssignment()
	for _, policy := range []Policy{PolicyFP, PolicyEDF} {
		allocsAt := func(horizon task.Time) float64 {
			return testing.AllocsPerRun(20, func() {
				rep, err := Simulate(a, Options{Policy: policy, Horizon: horizon, StopOnMiss: true})
				if err != nil || !rep.Ok() {
					t.Fatalf("%v: err=%v misses=%v", policy, err, rep.Misses)
				}
			})
		}
		short, long := allocsAt(20_000), allocsAt(40_000)
		if long != short {
			t.Errorf("%v: %v allocs at horizon 20k, %v at 40k: the simulator allocates per event", policy, short, long)
		}
		t.Logf("%v: %v allocs per run", policy, short)
	}
}

func BenchmarkSimulate(b *testing.B) {
	a := guardAssignment()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(a, Options{Horizon: 20_000, StopOnMiss: true}); err != nil {
			b.Fatal(err)
		}
	}
}

package global

import (
	"testing"

	"repro/internal/task"
)

// The global simulator allocates only at set-up (the sorted copy, the
// priority permutation, the per-task arrays and the report): the
// per-event work reuses them. Run with `go test -run AllocGuard ./...`.

// guardSet is schedulable under global RM on 2 processors (U = 1.4 with
// coprime-ish periods), so a run long enough to cover many events records
// no misses and the only report growth is the counters.
var guardSet = task.Set{
	{Name: "a", C: 2, T: 7},
	{Name: "b", C: 3, T: 11},
	{Name: "c", C: 4, T: 13},
	{Name: "d", C: 2, T: 17},
	{Name: "e", C: 4, T: 19},
}

func TestAllocGuardGlobalSimulate(t *testing.T) {
	for _, policy := range []Policy{RM, RMUS} {
		allocsAt := func(horizon task.Time) float64 {
			return testing.AllocsPerRun(20, func() {
				rep, err := Simulate(guardSet, 2, Options{Policy: policy, Horizon: horizon, StopOnMiss: true})
				if err != nil || !rep.Ok() {
					t.Fatalf("%v: err=%v misses=%v", policy, err, rep.Misses)
				}
			})
		}
		short, long := allocsAt(20_000), allocsAt(40_000)
		if long != short {
			t.Errorf("%v: %v allocs at horizon 20k, %v at 40k: the simulator allocates per event", policy, short, long)
		}
	}
}

func BenchmarkGlobalSimulate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(guardSet, 2, Options{Policy: RM, Horizon: 20_000, StopOnMiss: true}); err != nil {
			b.Fatal(err)
		}
	}
}

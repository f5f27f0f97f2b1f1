package partition

import (
	"math/rand"
	"testing"

	"repro/internal/task"
)

// Alloc guard for the arena partitioning path: once an Arena has been warmed
// on a task set, repartitioning the same shape must not allocate. This is
// the property that makes per-worker Workspace reuse in the experiment
// harness worthwhile. Run with `go test -run AllocGuard ./...`.
func TestAllocGuardPartitionArena(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ts := make(task.Set, 0, 10)
	for i := 0; i < 10; i++ {
		T := task.Time(50 + r.Intn(950))
		C := task.Time(1 + r.Intn(int(T)/3))
		ts = append(ts, task.Task{Name: "g", C: C, T: T})
	}
	m := 4
	algos := []struct {
		name string
		alg  ArenaPartitioner
	}{
		{"RM-TS", NewRMTS(nil)},
		{"RM-TS/light", RMTSLight{}},
		{"SPA2", SPA2{}},
		{"FF-RTA", FirstFitRTA{}},
		{"FF[HT]", FirstFit{Admission: AdmitHanTyan}},
		{"EDF-FF", EDFFirstFit{}},
	}
	for _, a := range algos {
		a := a
		t.Run(a.name, func(t *testing.T) {
			checkWarmArenaAllocs(t, a.alg, ts, m)
		})
	}
	// EDF-TS places this set only by splitting one task into constrained
	// windows, so the run reaches splitByWindows and its budget searches.
	t.Run("EDF-TS", func(t *testing.T) {
		split := task.Set{{C: 5, T: 10, D: 8}, {C: 6, T: 10}, {C: 11, T: 20, D: 18}, {C: 2, T: 14, D: 9}}
		if res := (EDFTS{}).Partition(split, 2); !res.OK || res.NumSplit == 0 {
			t.Fatalf("EDF-TS: OK=%v splits=%d, want a successful split", res.OK, res.NumSplit)
		}
		checkWarmArenaAllocs(t, EDFTS{}, split, 2)
	})
}

// checkWarmArenaAllocs fails t unless repartitioning ts on an arena warmed
// by the same call allocates nothing.
func checkWarmArenaAllocs(t *testing.T, alg ArenaPartitioner, ts task.Set, m int) {
	t.Helper()
	ar := &Arena{}
	alg.PartitionArena(ts, m, ar) // warm every buffer
	allocs := testing.AllocsPerRun(100, func() {
		alg.PartitionArena(ts, m, ar)
	})
	if allocs != 0 {
		t.Errorf("%s PartitionArena on warm arena: %v allocs/run, want 0", alg.Name(), allocs)
	}
}

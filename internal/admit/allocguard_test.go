// The race detector makes sync.Pool drop items at random, so the rejection
// path's fmt calls allocate a varying number of times per run under -race;
// these counts are meaningful only in a normal build.

//go:build !race

package admit

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
)

// Alloc guards for the service layer (run with `go test -run AllocGuard`):
// the accept path must not allocate once the cluster is warm, and an
// analyzed rejection must cost a fixed number of allocations however many
// processors its evidence covers, and a memo hit must cost none.

func TestAllocGuardAdmitRemoveCycle(t *testing.T) {
	defer obs.SetEnabled(obs.On())
	obs.SetEnabled(true) // the instrumented path is the production path
	for _, policy := range []string{partition.OnlineRTAFirstFit, partition.OnlineRTAWorstFit} {
		c := guardCluster(t, 32, policy)
		ctx := context.Background()
		cand := task.Task{C: 1, T: 50, D: 40}
		cycle := func() {
			res, err := c.Admit(ctx, cand)
			if err != nil || !res.Accepted {
				t.Fatalf("%s: churn candidate not accepted: %v %+v", policy, err, res)
			}
			if ok, err := c.Remove(ctx, res.Handle); !ok || err != nil {
				t.Fatalf("%s: remove failed: %v", policy, err)
			}
		}
		cycle() // warm the probe scratch
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("%s: admit+remove cycle on a warm M=32 cluster: %v allocs/op, want 0", policy, allocs)
		}
	}
}

// rejectAllocs measures one analyzed rejection with the memo disabled, so
// every call runs the engine and rebuilds the evidence.
func rejectAllocs(t *testing.T, m int, policy string, wantCause partition.Cause) float64 {
	t.Helper()
	c := guardCluster(t, m, policy)
	c.cacheCap = 0
	cand := task.Task{Name: "big", C: 90, T: 100}
	reject := func() {
		res := admitNow(t, c, cand)
		if res.Accepted || res.Cause != wantCause.String() || len(res.Evidence) != m {
			t.Fatalf("%s M=%d: want an analyzed %s rejection with %d evidence records, got %+v", policy, m, wantCause, m, res)
		}
	}
	reject()
	return testing.AllocsPerRun(100, reject)
}

func TestAllocGuardRejectionIndependentOfM(t *testing.T) {
	for _, tc := range []struct {
		policy string
		cause  partition.Cause
	}{
		{partition.OnlineRTAFirstFit, partition.CauseRTADeadlineMiss},
		{partition.OnlineThreshold, partition.CauseThresholdExhausted},
	} {
		small, large := rejectAllocs(t, 8, tc.policy, tc.cause), rejectAllocs(t, 32, tc.policy, tc.cause)
		if small != large {
			t.Errorf("%s: analyzed rejection allocates %v at M=8 but %v at M=32; want a count independent of M", tc.policy, small, large)
		}
	}
}

// TestAllocGuardMemoHit pins a memoized rejection at M=32 to zero
// allocations: the hit looks the candidate up and copies the stored
// Result, evidence included, without building a key.
func TestAllocGuardMemoHit(t *testing.T) {
	defer obs.SetEnabled(obs.On())
	obs.SetEnabled(true)
	c := guardCluster(t, 32, partition.OnlineRTAFirstFit)
	cand := task.Task{Name: "big", C: 90, T: 100}
	if res := admitNow(t, c, cand); res.Accepted || res.CacheHit || len(res.Evidence) != 32 {
		t.Fatalf("want a fresh analyzed rejection with 32 evidence records, got %+v", res)
	}
	hit := func() {
		if res := admitNow(t, c, cand); !res.CacheHit {
			t.Fatalf("repeat rejection missed the memo: %+v", res)
		}
	}
	if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
		t.Errorf("memo hit on an M=32 cluster: %v allocs/op, want 0", allocs)
	}
}

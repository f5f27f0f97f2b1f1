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
// the accept path must not allocate once the cluster is warm, an analyzed
// rejection asked for its evidence must cost a fixed number of allocations
// however many processors the evidence covers, and a rejection without it
// must allocate less.

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

// rejectAllocs measures one analyzed rejection: every call runs the engine
// and, withEvidence, rebuilds the evidence.
func rejectAllocs(t *testing.T, m int, policy string, wantCause partition.Cause, withEvidence bool) float64 {
	t.Helper()
	c := guardCluster(t, m, policy)
	cand := task.Task{Name: "big", C: 90, T: 100}
	wantRecords := 0
	if withEvidence {
		wantRecords = m
	}
	reject := func() {
		res, err := c.admit(context.Background(), cand, withEvidence)
		if err != nil || res.Accepted || res.Cause != wantCause.String() || len(res.Evidence) != wantRecords {
			t.Fatalf("%s M=%d: want an analyzed %s rejection with %d evidence records, got %+v (%v)", policy, m, wantCause, wantRecords, res, err)
		}
	}
	reject()
	return testing.AllocsPerRun(100, reject)
}

var guardRejections = []struct {
	policy string
	cause  partition.Cause
}{
	{partition.OnlineRTAFirstFit, partition.CauseRTADeadlineMiss},
	{partition.OnlineThreshold, partition.CauseThresholdExhausted},
}

func TestAllocGuardRejectionIndependentOfM(t *testing.T) {
	for _, tc := range guardRejections {
		small, large := rejectAllocs(t, 8, tc.policy, tc.cause, true), rejectAllocs(t, 32, tc.policy, tc.cause, true)
		if small != large {
			t.Errorf("%s: analyzed rejection allocates %v at M=8 but %v at M=32; want a count independent of M", tc.policy, small, large)
		}
	}
}

// TestAllocGuardDefaultRejectionCheaper pins the point of the opt-in: a
// rejection answered without evidence allocates fewer times than the same
// rejection with it.
func TestAllocGuardDefaultRejectionCheaper(t *testing.T) {
	for _, tc := range guardRejections {
		plain, opted := rejectAllocs(t, 32, tc.policy, tc.cause, false), rejectAllocs(t, 32, tc.policy, tc.cause, true)
		if plain >= opted {
			t.Errorf("%s: a rejection without evidence allocates %v times, with evidence %v; want fewer", tc.policy, plain, opted)
		}
	}
}

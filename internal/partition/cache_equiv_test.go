package partition

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rta"
	"repro/internal/split"
	"repro/internal/task"
)

// resultFingerprint renders every decision-bearing field of a Result —
// anything here that changes would change experiment tables or
// assignments.
func resultFingerprint(res *Result) string {
	s := fmt.Sprintf("ok=%v guar=%v failed=%d reason=%q splits=%d pre=%d sched=%q\n",
		res.OK, res.Guaranteed, res.FailedTask, res.Reason, res.NumSplit, res.NumPreAssigned, res.Scheduler)
	if res.Assignment != nil {
		s += fmt.Sprintf("preassigned=%v\n", res.Assignment.PreAssigned)
		for q, procs := range res.Assignment.Procs {
			s += fmt.Sprintf("proc %d: %v (U=%.17g)\n", q, procs, res.Assignment.Utilization(q))
		}
	}
	return s
}

// cacheEquivalenceDigest is the SHA-256 of the concatenated fingerprints
// TestCacheEquivalence produces. It was recorded while warm starts and the
// admission prefilter could still be switched off, after checking that all
// four on/off combinations produced this same digest.
const cacheEquivalenceDigest = "616adf6bfbead7165d8493bb020765bbb3f4ab921e78b4fa273b0c5285c834d0"

// TestCacheEquivalence is the headline contract of the incremental RTA
// engine: every partitioner must produce the results the from-scratch
// analysis produced, across adversarial task-set shapes. Warm starts and
// the prefilter may only change how many iterations each fixed point takes,
// never which fixed point is reached or which verdict is returned, so a
// change that flips any decision on these shapes moves the digest.
func TestCacheEquivalence(t *testing.T) {
	algos := []Algorithm{
		NewRMTS(nil),
		&RMTS{Surcharge: 2},
		RMTSLight{},
		RMTSLight{Surcharge: 1},
		SPA1{},
		SPA2{},
		EDFTS{},
		FirstFitRTA{},
		WorstFitRTA{},
		FirstFit{Admission: AdmitRTA},
	}
	h := sha256.New()
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		ts := fuzzSet(r)
		m := 1 + r.Intn(6)
		for _, alg := range algos {
			h.Write([]byte(resultFingerprint(alg.Partition(ts, m))))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cacheEquivalenceDigest {
		t.Fatalf("partitioning decisions on the adversarial shapes changed: digest %s, want %s", got, cacheEquivalenceDigest)
	}
}

// TestMaxPortionStateMatchesMaxPortionAt cross-checks the testing-point
// split search on processor states an actual partitioner run produces
// against the binary search over full admission probes
// (split.MaxPortionBinary) on a from-scratch state loaded from the same
// list.
func TestMaxPortionStateMatchesMaxPortionAt(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	for trial := 0; trial < 300; trial++ {
		ts := fuzzSet(r)
		m := 1 + r.Intn(4)
		res := NewRMTS(nil).Partition(ts, m)
		if res.Assignment == nil {
			continue
		}
		for q, procs := range res.Assignment.Procs {
			if len(procs) == 0 {
				continue
			}
			// Rebuild the mirror the partitioner would hold for this
			// processor and probe a fresh candidate against it.
			ps := &rta.ProcState{}
			for _, sub := range procs {
				ps.Insert(sub)
			}
			// Real probes never share a TaskIndex with a resident of the
			// same processor (a split's remainder moves to a different
			// processor), but the draw may: both searches then place the
			// candidate below the tied resident.
			prio := r.Intn(len(res.Assignment.Set) + 1)
			T := task.Time(10 + r.Intn(1000))
			budget := task.Time(1 + r.Intn(200))
			d := task.Time(1 + r.Intn(int(T)))
			var fresh rta.ProcState
			fresh.Load(procs)
			want := split.MaxPortionBinary(&fresh, prio, T, budget, d)
			if got := split.MaxPortionState(ps, prio, T, budget, d); got != want {
				t.Fatalf("trial %d proc %d: MaxPortionState=%d MaxPortionBinary=%d (procs=%v prio=%d T=%d budget=%d d=%d)",
					trial, q, got, want, procs, prio, T, budget, d)
			}
		}
	}
}

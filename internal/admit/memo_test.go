package admit

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/partition"
	"repro/internal/task"
)

// Rejection-memo tests: the memo answers only at the engine state it was
// filled at, so every mutation path must turn the next identical question
// into a miss, and nothing may pile up across states.

// memoTwin is a cluster with the memo on and a cap-0 twin (no memo) fed the
// same operations; admit compares the two on one question.
type memoTwin struct {
	t             *testing.T
	cached, plain *Cluster
}

func newMemoTwin(t *testing.T, cached *Cluster) *memoTwin {
	t.Helper()
	eng := cached.eng
	plain, err := NewService(1).Create(context.Background(), "plain", eng.M(), eng.Policy(), eng.Surcharge())
	if err != nil {
		t.Fatal(err)
	}
	plain.cacheCap = 0
	return &memoTwin{t: t, cached: cached, plain: plain}
}

// admit runs tk on both clusters, requires equal Results apart from
// CacheHit, and returns the memoized cluster's.
func (w *memoTwin) admit(tk task.Task) Result {
	w.t.Helper()
	a, b := admitNow(w.t, w.cached, tk), admitNow(w.t, w.plain, tk)
	b.CacheHit = a.CacheHit
	if !reflect.DeepEqual(a, b) {
		w.t.Fatalf("admit %v: memoized cluster answered %+v, uncached twin %+v", tk, a, b)
	}
	return a
}

func (w *memoTwin) remove(h uint64) {
	w.t.Helper()
	if !removeNow(w.t, w.cached, h) || !removeNow(w.t, w.plain, h) {
		w.t.Fatalf("remove %d: not resident on both clusters", h)
	}
}

func (w *memoTwin) memoLen() int {
	w.cached.mu.Lock()
	defer w.cached.mu.Unlock()
	return len(w.cached.cache)
}

// TestMemoMissesAfterEveryMutation walks each mutation path — an accepted
// admit, a remove, and the UndoAdmit rollback of an admission the journal
// refused — and requires the next identical question to be a miss that
// recomputes the uncached answer, while an immediate retry still hits.
func TestMemoMissesAfterEveryMutation(t *testing.T) {
	svc := NewService(1)
	if _, err := svc.AttachJournal(JournalConfig{Dir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: -1}); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cached, err := svc.Create(context.Background(), "cached", 2, partition.OnlineRTAFirstFit, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := newMemoTwin(t, cached)
	// One (6, 10) task per processor: the heavy question is rejected on
	// both, and the light one fits alongside on processor 0.
	w.admit(task.Task{C: 6, T: 10})
	w.admit(task.Task{C: 6, T: 10})
	heavy := task.Task{Name: "heavy", C: 9, T: 10}
	light := task.Task{Name: "light", C: 1, T: 100}

	ask := func(after string) {
		t.Helper()
		if res := w.admit(heavy); res.Accepted || res.CacheHit {
			t.Fatalf("after %s: want a recomputed rejection, got %+v", after, res)
		}
		if res := w.admit(heavy); !res.CacheHit {
			t.Fatalf("after %s: an immediate retry missed the memo", after)
		}
		if n := w.memoLen(); n != 1 {
			t.Fatalf("after %s: memo holds %d entries, want 1", after, n)
		}
	}
	ask("setup")

	res := w.admit(light)
	if !res.Accepted {
		t.Fatalf("light task rejected: %+v", res)
	}
	ask("an accepted admit")

	w.remove(res.Handle)
	ask("a remove") // the state recurs exactly, and still the memo misses

	faultinject.Arm(faultinject.Plan{JournalAppendEvery: 1})
	_, err = cached.Admit(context.Background(), light)
	faultinject.Disarm()
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("admit under an injected append failure: err = %v, want ErrDurability", err)
	}
	ask("an UndoAdmit rollback")
}

// TestMemoHoldsOneState churns a full M=32 cluster through 100 cycles of a
// distinct rejection, a remove and a refill: entries from earlier states
// must not survive, so the memo never holds more than the current state's.
func TestMemoHoldsOneState(t *testing.T) {
	c := guardCluster(t, 32, partition.OnlineRTAFirstFit)
	var live []uint64
	for _, r := range c.eng.ResidentsSnapshot() {
		live = append(live, r.Handle)
	}
	for i := 0; i < 100; i++ {
		if res := admitNow(t, c, task.Task{C: 90, T: 100 + task.Time(i)}); res.Accepted || res.CacheHit {
			t.Fatalf("cycle %d: want a fresh rejection, got %+v", i, res)
		}
		removeNow(t, c, live[0])
		live = live[1:]
		res := admitNow(t, c, task.Task{C: 24, T: 100})
		if !res.Accepted {
			t.Fatalf("cycle %d: refill rejected: %+v", i, res)
		}
		live = append(live, res.Handle)
	}
	c.mu.Lock()
	n := len(c.cache)
	c.mu.Unlock()
	if n > 1 {
		t.Errorf("memo holds %d entries after 100 reject→remove cycles, want at most 1", n)
	}
}

// FuzzClusterMemo is TestClusterCacheEquivalence as a property: fuzz-decoded
// admit/remove sequences run through a memoized cluster and a cap-0 twin,
// and every Result must be equal apart from CacheHit. Each op is two bytes;
// the parameter space is small so questions repeat and the memo is hit.
func FuzzClusterMemo(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{4, 9, 4, 9, 4, 9, 8, 1, 0, 0, 4, 9, 4, 9})
	f.Add(uint8(2), uint8(1), []byte{4, 7, 4, 7, 4, 7, 4, 7, 4, 7, 0, 3, 4, 7, 0x84, 0x57, 0x84, 0x57})
	f.Add(uint8(3), uint8(6), []byte{4, 5, 4, 5, 4, 5, 0x40, 5, 0x40, 5, 0, 1, 4, 5, 4, 0})
	f.Fuzz(func(t *testing.T, m, conf uint8, ops []byte) {
		policies := onlinePolicies
		cached, err := NewService(1).Create(context.Background(), "cached",
			1+int(m%4), policies[int(conf)%len(policies)], task.Time(conf>>2&1))
		if err != nil {
			t.Fatal(err)
		}
		w := newMemoTwin(t, cached)
		var live []uint64
		for ; len(ops) >= 2; ops = ops[2:] {
			a, b := ops[0], ops[1]
			if a&3 == 0 && len(live) > 0 {
				i := int(b) % len(live)
				w.remove(live[i])
				live = append(live[:i], live[i+1:]...)
				continue
			}
			T := task.Time(10 * (1 + int(a>>2&7)%6))
			tk := task.Task{C: task.Time(b & 15), T: T} // C = 0 is an input rejection
			if a&0x80 != 0 {
				tk.D = task.Time(b >> 4) // may fall below C: also an input rejection
			}
			if a&0x40 != 0 {
				tk.Name = "n"
			}
			if res := w.admit(tk); res.Accepted {
				live = append(live, res.Handle)
			}
		}
	})
}

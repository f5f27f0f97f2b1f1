package partition

import (
	"math/rand"
	"testing"

	"repro/internal/task"
)

// TestArenaEquivalence is the memory-discipline contract: partitioning into
// a dirty, reused arena must produce byte-identical results to a fresh
// Partition call, for every algorithm, across adversarial task-set shapes
// and varying processor counts (so arena buffers shrink and grow between
// calls). One arena is shared by all algorithms and all trials — maximal
// staleness.
func TestArenaEquivalence(t *testing.T) {
	algos := []ArenaPartitioner{
		NewRMTS(nil),
		&RMTS{Surcharge: 2},
		RMTSLight{},
		RMTSLight{Surcharge: 1},
		SPA1{},
		SPA2{},
		EDFTS{},
		FirstFitRTA{},
		WorstFitRTA{},
		WorstFitRTA{Order: IncreasingPriority},
		FirstFit{Admission: AdmitRTA},
		FirstFit{Admission: AdmitHyperbolic},
		EDFFirstFit{},
		EDFWorstFit{},
	}
	ar := new(Arena)
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		ts := fuzzSet(r)
		m := 1 + r.Intn(6)
		for _, alg := range algos {
			fresh := resultFingerprint(alg.Partition(ts, m))
			reused := resultFingerprint(alg.PartitionArena(ts, m, ar))
			if fresh != reused {
				t.Fatalf("trial %d: %s diverged between fresh and arena-backed runs on %v (m=%d)\n--- fresh ---\n%s--- arena ---\n%s",
					trial, alg.Name(), ts, m, fresh, reused)
			}
		}
	}
}

// TestArenaInputNotRetained pins the ownership rule that PartitionArena
// never modifies or aliases its input set.
func TestArenaInputNotRetained(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	ar := new(Arena)
	ts := fuzzSet(r)
	before := ts.Clone()
	res := RMTSLight{}.PartitionArena(ts, 3, ar)
	if res.Assignment != nil && len(res.Assignment.Set) > 0 && &res.Assignment.Set[0] == &ts[0] {
		t.Fatalf("arena result aliases the input set")
	}
	for i := range ts {
		if ts[i] != before[i] {
			t.Fatalf("input set modified at %d: %v != %v", i, ts[i], before[i])
		}
	}
}

// FuzzArenaPreparedSet pins the prepared-set rule of Arena.prepare: a run
// of PartitionArena calls on one arena — the same set offered again, its C
// values rewritten in place in the same buffer, renamed or invalid sets,
// a changed processor count (zero included), any registry algorithm —
// must fingerprint exactly as a fresh arena per call does. Each op byte
// picks the mutation (low three bits) and the algorithm; the seed draws
// the sets and the processor counts.
func FuzzArenaPreparedSet(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38, 0x40})
	f.Add(int64(2), []byte{0x01, 0x02, 0x0a, 0x03, 0x0b, 0x01, 0x44, 0x05, 0x06, 0x07})
	f.Add(int64(3), []byte{0x31, 0x32, 0x31, 0x34, 0x31, 0x35, 0x31, 0x36, 0x39, 0x3a})
	var algos []ArenaPartitioner
	for _, name := range Names() {
		alg, err := Lookup(name, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		if alg != nil { // "auto" leaves the choice to the planner
			algos = append(algos, alg.(ArenaPartitioner))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		r := rand.New(rand.NewSource(seed))
		ar := new(Arena)
		buf := fuzzSet(r)
		for step, op := range ops {
			if len(buf) == 0 && op&7 != 0 {
				op &^= 7 // only a fresh set follows an empty one
			}
			switch op & 7 {
			case 0: // a different set, drawn into the same buffer
				buf = append(buf[:0], fuzzSet(r)...)
			case 1: // the same set again
			case 2: // one C rewritten in place, still valid
				i := r.Intn(len(buf))
				buf[i].C = 1 + task.Time(r.Int63n(int64(buf[i].T)))
			case 3: // one C rewritten in place past its period: invalid
				i := r.Intn(len(buf))
				buf[i].C = buf[i].T + task.Time(1+r.Intn(4))
			case 4: // one C zeroed: invalid
				buf[r.Intn(len(buf))].C = 0
			case 5: // one task renamed
				buf[r.Intn(len(buf))].Name = "g"
			case 6: // the empty set: invalid
				buf = buf[:0]
			case 7: // C restored to 1 everywhere, undoing any invalid C
				for i := range buf {
					buf[i].C = 1
				}
			}
			alg := algos[int(op>>3)%len(algos)]
			m := r.Intn(7)
			reused := resultFingerprint(alg.PartitionArena(buf, m, ar))
			fresh := resultFingerprint(alg.PartitionArena(buf, m, new(Arena)))
			if reused != fresh {
				t.Fatalf("step %d (op %#x): %s on %v (m=%d) diverged on a reused arena\n--- fresh ---\n%s--- reused ---\n%s",
					step, op, alg.Name(), buf, m, fresh, reused)
			}
		}
	})
}

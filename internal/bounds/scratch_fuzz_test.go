package bounds

import (
	"math"
	"testing"

	"repro/internal/task"
)

// FuzzBoundValueScratch pins the one production evaluation path of every
// PUB (ValueScratch) to the slice-based reference of reference_test.go:
// each Portfolio member, the greedy harmonic chain bound, Best() and empty
// and non-empty Min/Max combinators, through ValueWith on a shared Scratch
// and through Value on a fresh one. The first byte fixes the set length;
// every following group of 2·n bytes rewrites the periods of the same set
// in place, evaluated with the same Scratch, so the scaled-period memo
// (keyed on the period vector) sees same-length sets with different
// periods as well as repeated ones.
func FuzzBoundValueScratch(f *testing.F) {
	f.Add([]byte{3, 2, 0, 4, 1, 9, 0, 2, 0, 4, 1, 9, 1})
	f.Add([]byte{5, 1, 2, 3, 1, 5, 0, 7, 3, 11, 0, 1, 2, 3, 1, 5, 0, 7, 3, 12, 0})
	f.Add([]byte{1, 200, 255, 0, 7})
	f.Add([]byte{0})
	pubs := append(Portfolio(), HarmonicChain{}, Best(), Min{}, Max{},
		Min{Bounds: Portfolio()}, Max{Bounds: []PUB{TBound{}, RBound{}}})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 13
		data = data[1:]
		ts := make(task.Set, n)
		for i := range ts {
			ts[i] = task.Task{C: 1, T: 1}
		}
		sc := new(Scratch)
		for round := 0; round == 0 || len(data) >= 2*n; round++ {
			if n > 0 && len(data) < 2*n {
				return
			}
			for i := range ts {
				ts[i].T = fuzzPeriod(data[2*i], data[2*i+1])
			}
			data = data[2*n:]
			for _, p := range pubs {
				want := refValue(p, ts)
				if got := ValueWith(p, ts, sc); got != want {
					t.Fatalf("round %d %s: ValueWith(shared scratch)=%v, reference=%v (periods %v)", round, p.Name(), got, want, Periods(ts))
				}
				if got := p.Value(ts); got != want {
					t.Fatalf("round %d %s: Value=%v, reference=%v (periods %v)", round, p.Name(), got, want, Periods(ts))
				}
			}
			if n == 0 {
				return
			}
		}
	})
}

// fuzzPeriod maps two bytes to a period. Small bases times powers of two
// make divisibility (harmonic chains) and exact scaled-period ties common;
// the high bit of b switches to periods near math.MaxInt64.
func fuzzPeriod(a, b byte) task.Time {
	if b&0x80 != 0 {
		return math.MaxInt64 - task.Time(a)*task.Time(b&0x7f)
	}
	return task.Time(1+int(a)%48) << (b % 12)
}

// Scratch-threaded PUB evaluation, the one implementation of every bound.
// RM-TS evaluates its parametric bound Λ(τ) once per partitioning call,
// which on the acceptance-sweep hot path means once per generated sample,
// so the evaluation draws all working storage (sorted periods, scaled
// periods, matching state, chain tails) from a caller-owned Scratch that
// grows to the working-set size and is then reused forever. Each Value
// method is ValueScratch with a fresh Scratch.
//
// FuzzBoundValueScratch pins every bound, on fresh and on reused scratch,
// against the slice-based reference kept in reference_test.go (period
// copies, sort.Slice, an explicit adjacency list for the matching): same
// sort permutations — the insertion sorts here are stable, and the sort
// keys are total orders anyway — and the same matching, since candidate
// successors are scanned in the same ascending order.
package bounds

import (
	"math"

	"repro/internal/task"
)

// Scratch holds the reusable working storage for scratch-threaded PUB
// evaluation. The zero value is ready to use; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	periods []task.Time // sorted period vector (also Han–Tyan's sorted bases)
	scaled  []float64   // ScaledPeriods output
	matchR  []int       // Kuhn matching: predecessor per right node
	seen    []bool      // visited set, cleared per augmenting round
	tails   []task.Time // greedy grouping: largest element per chain
	spKey   []task.Time // scaledPeriods memo: period vector the cache is for
}

// ScratchValuer is implemented by PUBs that can evaluate with caller-owned
// scratch instead of fresh allocations. ValueScratch(ts, sc) returns
// exactly Value(ts).
type ScratchValuer interface {
	ValueScratch(ts task.Set, sc *Scratch) float64
}

// ValueWith evaluates p on ts, threading sc through when p (or, for the
// combinators, its children) supports it and falling back to p.Value
// otherwise. sc may be nil.
func ValueWith(p PUB, ts task.Set, sc *Scratch) float64 {
	if sc != nil {
		if sv, ok := p.(ScratchValuer); ok {
			return sv.ValueScratch(ts, sc)
		}
	}
	return p.Value(ts)
}

// EffectiveRMTSScratch is EffectiveRMTS with scratch-threaded bound
// evaluation; sc may be nil.
func EffectiveRMTSScratch(p PUB, ts task.Set, sc *Scratch) float64 {
	v := ValueWith(p, ts, sc)
	if limit := RMTSCapFor(len(ts)); v > limit {
		return limit
	}
	return v
}

// ValueScratch implements ScratchValuer (LL depends only on the count).
func (LiuLayland) ValueScratch(ts task.Set, _ *Scratch) float64 { return LL(len(ts)) }

// ValueScratch implements ScratchValuer.
func (h HarmonicChain) ValueScratch(ts task.Set, sc *Scratch) float64 {
	ps := sc.sortedPeriods(ts)
	var k int
	if h.Minimal {
		k = sc.chainsMin(ps)
	} else {
		k = sc.chainsGreedy(ps)
	}
	return LL(k) // K(2^{1/K}−1) is the L&L expression evaluated at K
}

// ValueScratch implements ScratchValuer.
func (b TBound) ValueScratch(ts task.Set, sc *Scratch) float64 {
	sp := sc.scaledPeriods(ts)
	return tBoundOf(sp)
}

// ValueScratch implements ScratchValuer.
func (b RBound) ValueScratch(ts task.Set, sc *Scratch) float64 {
	sp := sc.scaledPeriods(ts)
	return rBoundOf(sp)
}

// ValueScratch implements ScratchValuer: the minimum over children, each
// evaluated with the shared scratch when it supports one.
func (m Min) ValueScratch(ts task.Set, sc *Scratch) float64 {
	if len(m.Bounds) == 0 {
		return 1
	}
	v := ValueWith(m.Bounds[0], ts, sc)
	for _, b := range m.Bounds[1:] {
		if w := ValueWith(b, ts, sc); w < v {
			v = w
		}
	}
	return v
}

// ValueScratch implements ScratchValuer: the maximum over children, each
// evaluated with the shared scratch when it supports one.
func (m Max) ValueScratch(ts task.Set, sc *Scratch) float64 {
	v := 0.0
	for _, b := range m.Bounds {
		if w := ValueWith(b, ts, sc); w > v {
			v = w
		}
	}
	return v
}

// sortedPeriods fills the scratch period buffer with the set's periods in
// ascending order (insertion sort; equal periods are interchangeable).
func (sc *Scratch) sortedPeriods(ts task.Set) []task.Time {
	ps := sc.periods[:0]
	for _, t := range ts {
		ps = append(ps, t.T)
	}
	sc.periods = ps
	return sortTimes(ps)
}

// sortTimes sorts ps ascending in place (insertion sort) and returns it.
func sortTimes(ps []task.Time) []task.Time {
	for i := 1; i < len(ps); i++ {
		x := ps[i]
		j := i - 1
		for j >= 0 && ps[j] > x {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = x
	}
	return ps
}

// scaledPeriods computes the sorted scaled periods of the T-bound (see
// TBound) into the scratch float buffer, memoized on the full period
// vector: TBound and RBound both consume it, so under a Max/Min combinator
// the second child reuses the first child's scale+sort. The memo key is
// compared element for element — an O(n) check against the
// O(n log n + n·log(Tmax/Tmin)) recompute — so a caller mutating the set
// between evaluations (arena reuse across samples) can never see a stale
// vector.
func (sc *Scratch) scaledPeriods(ts task.Set) []float64 {
	if len(ts) == 0 {
		return nil
	}
	if len(sc.spKey) == len(ts) && len(sc.scaled) == len(ts) {
		hit := true
		for i := range ts {
			if sc.spKey[i] != ts[i].T {
				hit = false
				break
			}
		}
		if hit {
			return sc.scaled
		}
	}
	key := sc.spKey[:0]
	for _, t := range ts {
		key = append(key, t.T)
	}
	sc.spKey = key
	tmax := ts[0].T
	for _, t := range ts {
		if t.T > tmax {
			tmax = t.T
		}
	}
	out := sc.scaled[:0]
	for _, t := range ts {
		v := float64(t.T)
		for v*2 <= float64(tmax) {
			v *= 2
		}
		out = append(out, v)
	}
	sc.scaled = out
	sortFloats(out)
	return out
}

// chainsGreedy counts the harmonic chains of the classic greedy grouping
// of Kuo & Mok [21] on an already-sorted period vector: each period joins
// the first chain whose largest element divides it, opening a new chain
// otherwise. A valid, not always minimal, chain cover; the chain-tail list
// is drawn from scratch.
func (sc *Scratch) chainsGreedy(ps []task.Time) int {
	tails := sc.tails[:0]
	for _, p := range ps {
		placed := false
		for i, tail := range tails {
			if p%tail == 0 {
				tails[i] = p
				placed = true
				break
			}
		}
		if !placed {
			tails = append(tails, p)
		}
	}
	sc.tails = tails
	return len(tails)
}

// chainsMin is HarmonicChainsMin on an already-sorted period vector: n
// minus a maximum matching of the successor graph (i → j for j > i with
// ps[i] | ps[j]), computed by Kuhn's algorithm with scratch-backed matching
// state and no materialised adjacency — tryAugment re-derives each node's
// successors in ascending order on the fly.
func (sc *Scratch) chainsMin(ps []task.Time) int {
	n := len(ps)
	if n == 0 {
		return 0
	}
	matchR := growInts(&sc.matchR, n)
	for i := range matchR {
		matchR[i] = -1
	}
	seen := growBools(&sc.seen, n)
	size := 0
	for i := 0; i < n; i++ {
		for j := range seen {
			seen[j] = false
		}
		if tryAugment(ps, matchR, seen, i) {
			size++
		}
	}
	return n - size
}

// tryAugment is one augmenting-path round of Kuhn's algorithm over the
// implicit successor graph of the sorted period vector.
func tryAugment(ps []task.Time, matchR []int, seen []bool, i int) bool {
	for j := i + 1; j < len(ps); j++ {
		if ps[j]%ps[i] != 0 || seen[j] {
			continue
		}
		seen[j] = true
		if matchR[j] == -1 || tryAugment(ps, matchR, seen, matchR[j]) {
			matchR[j] = i
			return true
		}
	}
	return false
}

// tBoundOf evaluates the T-bound expression on sorted scaled periods.
func tBoundOf(sp []float64) float64 {
	n := len(sp)
	if n <= 1 {
		return 1
	}
	sum := 0.0
	for i := 0; i+1 < n; i++ {
		sum += sp[i+1] / sp[i]
	}
	sum += 2*sp[0]/sp[n-1] - float64(n)
	return sum
}

// rBoundOf evaluates the R-bound expression on sorted scaled periods.
func rBoundOf(sp []float64) float64 {
	n := len(sp)
	if n <= 1 {
		return 1
	}
	r := sp[n-1] / sp[0]
	return float64(n-1)*(math.Pow(r, 1/float64(n-1))-1) + 2/r - 1
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

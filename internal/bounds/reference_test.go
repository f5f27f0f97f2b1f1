package bounds

import (
	"math"
	"sort"

	"repro/internal/task"
)

// Slice-based reference evaluation of every PUB: period copies, sort.Slice
// and an explicit successor adjacency list for the matching, as the package
// first computed them. Production evaluates each bound only through
// ValueScratch (scratch.go); FuzzBoundValueScratch pins it to refValue.

// refValue is Λ(τ) of p by the slice-based reference bodies.
func refValue(p PUB, ts task.Set) float64 {
	switch b := p.(type) {
	case LiuLayland:
		return LL(len(ts))
	case HarmonicChain:
		periods := Periods(ts)
		var k int
		if b.Minimal {
			k = refHarmonicChainsMin(periods)
		} else {
			k = HarmonicChainsGreedy(periods)
		}
		return LL(k)
	case TBound:
		sp := ScaledPeriods(Periods(ts))
		n := len(sp)
		if n == 0 {
			return 1
		}
		if n == 1 {
			return 1
		}
		sum := 0.0
		for i := 0; i+1 < n; i++ {
			sum += sp[i+1] / sp[i]
		}
		sum += 2*sp[0]/sp[n-1] - float64(n)
		return sum
	case RBound:
		sp := ScaledPeriods(Periods(ts))
		n := len(sp)
		if n <= 1 {
			return 1
		}
		r := sp[n-1] / sp[0]
		return float64(n-1)*(math.Pow(r, 1/float64(n-1))-1) + 2/r - 1
	case Min:
		if len(b.Bounds) == 0 {
			return 1
		}
		v := refValue(b.Bounds[0], ts)
		for _, c := range b.Bounds[1:] {
			if w := refValue(c, ts); w < v {
				v = w
			}
		}
		return v
	case Max:
		v := 0.0
		for _, c := range b.Bounds {
			if w := refValue(c, ts); w > v {
				v = w
			}
		}
		return v
	}
	panic("bounds: no reference for " + p.Name())
}

// HarmonicChainsGreedy computes the number of harmonic chains covering the
// period multiset using the classic greedy grouping: scan periods in
// ascending order and append each to the first existing chain whose largest
// element divides it, opening a new chain otherwise. This mirrors the chain
// construction of Kuo & Mok [21]; it is a valid (but not always minimal)
// chain cover. Returns 0 for an empty input.
func HarmonicChainsGreedy(periods []task.Time) int {
	ps := append([]task.Time(nil), periods...)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	var tails []task.Time // largest element per chain
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
	return len(tails)
}

// refHarmonicChainsMin is the minimum chain cover size: n minus a maximum
// matching in the bipartite successor graph of the sorted periods.
func refHarmonicChainsMin(periods []task.Time) int {
	n := len(periods)
	if n == 0 {
		return 0
	}
	ps := append([]task.Time(nil), periods...)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	// adj[i] lists j > i with ps[i] | ps[j]. Index order breaks ties between
	// equal periods, keeping the relation antisymmetric.
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ps[j]%ps[i] == 0 {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return n - maxBipartiteMatching(n, adj)
}

// maxBipartiteMatching runs Kuhn's augmenting-path algorithm on the
// successor graph (left and right node sets are both 0..n-1) and returns
// the matching size. O(V·E), which is ample for task-set sizes.
func maxBipartiteMatching(n int, adj [][]int) int {
	matchR := make([]int, n)
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(i int, seen []bool) bool
	try = func(i int, seen []bool) bool {
		for _, j := range adj[i] {
			if seen[j] {
				continue
			}
			seen[j] = true
			if matchR[j] == -1 || try(matchR[j], seen) {
				matchR[j] = i
				return true
			}
		}
		return false
	}
	size := 0
	for i := 0; i < n; i++ {
		seen := make([]bool, n)
		if try(i, seen) {
			size++
		}
	}
	return size
}

// ScaledPeriods maps each period T_i to T_i·2^{k_i} with the unique
// k_i ≥ 0 such that the result lies in (T_max/2, T_max], where T_max is the
// largest period. The returned slice is sorted ascending. This is the
// ScaleTaskSet transformation of [23].
func ScaledPeriods(periods []task.Time) []float64 {
	if len(periods) == 0 {
		return nil
	}
	tmax := periods[0]
	for _, p := range periods {
		if p > tmax {
			tmax = p
		}
	}
	out := make([]float64, len(periods))
	for i, p := range periods {
		v := float64(p)
		for v*2 <= float64(tmax) {
			v *= 2
		}
		out[i] = v
	}
	sortFloats(out)
	return out
}

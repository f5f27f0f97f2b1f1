package bounds

import (
	"sort"

	"repro/internal/task"
)

// HarmonicChainsMin computes the minimum number of harmonic chains needed
// to cover the period multiset. Two periods can share a chain iff one
// divides the other; since divisibility is transitive, this is a minimum
// chain partition of a poset, which equals n minus the size of a maximum
// matching in the bipartite "successor" graph (the classical minimum path
// cover reduction on a transitively closed DAG). Returns 0 for an empty
// input.
func HarmonicChainsMin(periods []task.Time) int {
	ps := append([]task.Time(nil), periods...)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return new(Scratch).chainsMin(ps)
}

// HarmonicChainCover returns an explicit minimum chain cover of the period
// multiset: each chain is a list of indices into the *sorted* period slice
// (ascending), with every element dividing the next. The number of chains
// equals HarmonicChainsMin. The sorted periods are returned alongside so
// callers can map indices back to values.
func HarmonicChainCover(periods []task.Time) (chains [][]int, sorted []task.Time) {
	n := len(periods)
	if n == 0 {
		return nil, nil
	}
	ps := append([]task.Time(nil), periods...)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ps[j]%ps[i] == 0 {
				adj[i] = append(adj[i], j)
			}
		}
	}
	matchL := make([]int, n) // successor of left node i, or -1
	matchR := make([]int, n) // predecessor of right node j, or -1
	for i := range matchL {
		matchL[i] = -1
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
				matchL[i] = j
				matchR[j] = i
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		seen := make([]bool, n)
		try(i, seen)
	}
	// Chains start at nodes with no predecessor and follow successor links.
	for j := 0; j < n; j++ {
		if matchR[j] != -1 {
			continue
		}
		chain := []int{j}
		for cur := j; matchL[cur] != -1; cur = matchL[cur] {
			chain = append(chain, matchL[cur])
		}
		chains = append(chains, chain)
	}
	return chains, ps
}

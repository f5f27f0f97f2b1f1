package bounds

import (
	"sort"

	"repro/internal/task"
)

// HanTyanSchedulable implements the classic polynomial-time test of Han &
// Tyan ("A better polynomial-time schedulability test for real-time
// fixed-priority scheduling algorithms"): fold the periods onto a harmonic
// grid derived from each candidate base period and accept if any folding
// keeps total utilization at most 1.
//
// For every task i, consider the base b obtained by halving T_i until it
// is at most the smallest period; fold every period onto the grid
// h_j = b·2^⌊log2(T_j/b)⌋ ≤ T_j (a harmonic set), and compute
// U' = Σ C_j/h_j. Since {h_j} is harmonic and h_j ≤ T_j, U' ≤ 1 proves RM
// schedulability of the original set. The test is tighter than the
// hyperbolic bound on most period patterns while remaining O(N² + N log N).
//
// It is exposed as a PUB-like admission (partition.AdmitHanTyan) and
// sits strictly between the closed-form bounds and exact RTA in the
// admission-ablation experiment.
func HanTyanSchedulable(ts task.Set) bool {
	n := len(ts)
	if n == 0 {
		return true
	}
	periods := make([]task.Time, n)
	tmin := ts[0].T
	for i, t := range ts {
		if t.C <= 0 || t.T <= 0 || t.C > t.T {
			return false
		}
		periods[i] = t.T
		if t.T < tmin {
			tmin = t.T
		}
	}
	sort.Slice(periods, func(i, j int) bool { return periods[i] < periods[j] })
	for _, base := range periods {
		b := base
		for b > tmin {
			b /= 2
		}
		if b <= 0 {
			continue
		}
		u := 0.0
		for _, t := range ts {
			h := b
			// h ≤ T/2 is h·2 ≤ T without the overflow past 2^62.
			for h <= t.T/2 {
				h *= 2
			}
			u += float64(t.C) / float64(h)
			if u > 1 {
				break
			}
		}
		if u <= 1 {
			return true
		}
	}
	return false
}

package bounds

import (
	"math/bits"

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
// admission-ablation experiment. HanTyanScratch is the same test without
// allocation.
func HanTyanSchedulable(ts task.Set) bool {
	cs := make([]task.Time, len(ts))
	ps := make([]task.Time, len(ts))
	for i, t := range ts {
		cs[i], ps[i] = t.C, t.T
	}
	return HanTyanScratch(cs, ps, new(Scratch))
}

// HanTyanScratch is HanTyanSchedulable over parallel execution-time and
// period slices (task j is (cs[j], ts[j])), drawing the sorted bases from
// sc, so a warm Scratch makes it allocation-free.
//
// U' ≤ 1 is decided exactly, in integers: every h_j is b·2^{k_j} with
// k_j ≤ 62, so U' ≤ 1 ⟺ Σ C_j·2^{63−k_j} ≤ b·2^{63}. Each term and the
// right side are below 2^126, and the sum stops as soon as it passes the
// right side, so a 128-bit accumulator never wraps. A float sum instead
// rounds 1 + 2^{−60} down to 1 and admits a set whose folding overflows by
// one tick.
func HanTyanScratch(cs, ts []task.Time, sc *Scratch) bool {
	n := len(ts)
	if n == 0 {
		return true
	}
	cs = cs[:n]
	tmin := ts[0]
	for j, t := range ts {
		if c := cs[j]; c <= 0 || t <= 0 || c > t {
			return false
		}
		tmin = min(tmin, t)
	}
	bases := sortTimes(append(sc.periods[:0], ts...))
	sc.periods = bases
	prev := task.Time(0)
	for _, base := range bases {
		b := base
		for b > tmin {
			b /= 2
		}
		// Equal bases fold identically; b ≥ 1 because tmin ≥ 1.
		if b == prev {
			continue
		}
		prev = b
		if foldedFits(cs, ts, b) {
			return true
		}
	}
	return false
}

// foldedFits reports whether Σ C_j/h_j ≤ 1 on base b's harmonic grid, in
// exact 128-bit arithmetic (see HanTyanScratch); every T_j ≥ b.
func foldedFits(cs, ts []task.Time, b task.Time) bool {
	rhsHi, rhsLo := uint64(b)>>1, uint64(b)<<63
	var hi, lo uint64
	for j, t := range ts {
		// h_j = b·2^k ≤ T_j ⟺ 2^k ≤ ⌊T_j/b⌋.
		k := bits.Len64(uint64(t/b)) - 1
		s := uint(63 - k)
		c := uint64(cs[j])
		var carry uint64
		lo, carry = bits.Add64(lo, c<<s, 0)
		hi += c>>(64-s) + carry
		if hi > rhsHi || (hi == rhsHi && lo > rhsLo) {
			return false
		}
	}
	return true
}

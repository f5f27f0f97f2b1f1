// Package bounds implements the parametric utilization bounds (PUBs) of the
// paper's §III for rate-monotonic scheduling, together with the harmonic
// chain machinery they need:
//
//   - the Liu & Layland bound Θ(N) = N(2^{1/N}−1),
//   - the harmonic chain bound K(2^{1/K}−1) of Kuo & Mok [21], with both
//     the classic greedy chain grouping and an optimal minimum chain cover
//     (computed by maximum bipartite matching on the divisibility poset;
//     K = 1 recovers the 100% bound for harmonic sets [26]),
//   - the T-bound and R-bound of Lauzac, Melhem & Mossé [23] based on
//     scaled periods.
//
// Every bound evaluates through one path, ValueScratch with caller-owned
// working storage (scratch.go); Value is ValueScratch with a fresh Scratch.
//
// Every bound here is *deflatable* (a D-PUB, Lemma 1): its value depends
// only on task periods and count, never on execution times, so decreasing
// execution times cannot invalidate it. Deflatable returns that statically.
//
// The package also exposes the derived thresholds the algorithms use:
// LightThreshold = Θ/(1+Θ) (Definition 1) and RMTSCap = 2Θ/(1+Θ) (§V).
package bounds

import (
	"math"

	"repro/internal/task"
)

// PUB is a parametric utilization bound Λ(·): applying it to a task set's
// parameters yields a per-processor utilization threshold under which RMS
// meets all deadlines on a uniprocessor (§III).
type PUB interface {
	// Name identifies the bound in reports.
	Name() string
	// Value computes Λ(τ) from the task set's parameters. The set need not
	// satisfy U(τ) ≤ Λ(τ); the value is simply a function of parameters
	// (see the paper's footnote 2).
	Value(ts task.Set) float64
	// Deflatable reports whether the bound satisfies Lemma 1. All bounds in
	// this package do.
	Deflatable() bool
}

// llTable caches LL(n) for small n: admission-time callers (the partition
// prefilter, threshold admissions) evaluate the bound once per probe, and a
// table lookup replaces the math.Pow on that hot path. Entries hold exactly
// the value the closed form computes, so cached and computed results are
// bit-identical.
var llTable = func() [257]float64 {
	var t [257]float64
	t[0] = 1
	for n := 1; n < len(t); n++ {
		t[n] = float64(n) * (math.Pow(2, 1/float64(n)) - 1)
	}
	return t
}()

// LL returns the Liu & Layland bound Θ(n) = n(2^{1/n}−1) for n tasks.
// LL(0) is defined as 1 (an empty set is trivially schedulable at full
// utilization); as n → ∞ the bound decreases towards ln 2 ≈ 0.6931.
func LL(n int) float64 {
	if n <= 0 {
		return 1
	}
	if n < len(llTable) {
		return llTable[n]
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// LLInf is the limit of the Liu & Layland bound, ln 2 ≈ 69.31%.
const LLInf = math.Ln2

// LightThresholdFor returns Θ/(1+Θ) for Θ = LL(n): the maximum individual
// utilization of a "light" task (Definition 1). It tends to
// ln2/(1+ln2) ≈ 40.94% as n grows.
func LightThresholdFor(n int) float64 {
	theta := LL(n)
	return theta / (1 + theta)
}

// RMTSCapFor returns 2Θ/(1+Θ) for Θ = LL(n): the largest D-PUB value that
// RM-TS can achieve for arbitrary task sets (§V). It tends to
// 2ln2/(1+ln2) ≈ 81.87% as n grows.
func RMTSCapFor(n int) float64 {
	theta := LL(n)
	return 2 * theta / (1 + theta)
}

// LiuLayland is the classic L&L bound as a PUB: Λ(τ) = Θ(|τ|).
type LiuLayland struct{}

// Name implements PUB.
func (LiuLayland) Name() string { return "L&L" }

// Value implements PUB.
func (l LiuLayland) Value(ts task.Set) float64 { return l.ValueScratch(ts, nil) }

// Deflatable implements PUB.
func (LiuLayland) Deflatable() bool { return true }

// HarmonicChain is the Kuo & Mok bound Λ(τ) = K(2^{1/K}−1), where K is the
// number of harmonic chains covering the task set's periods. With
// Minimal=true, K is the optimal minimum chain cover (highest bound);
// otherwise the classic greedy grouping is used.
type HarmonicChain struct {
	// Minimal selects the optimal minimum chain cover instead of the greedy
	// grouping.
	Minimal bool
}

// Name implements PUB.
func (h HarmonicChain) Name() string {
	if h.Minimal {
		return "HC-min"
	}
	return "HC"
}

// Value implements PUB.
func (h HarmonicChain) Value(ts task.Set) float64 { return h.ValueScratch(ts, new(Scratch)) }

// Deflatable implements PUB.
func (HarmonicChain) Deflatable() bool { return true }

// Periods extracts the period vector of a task set.
func Periods(ts task.Set) []task.Time {
	ps := make([]task.Time, len(ts))
	for i, t := range ts {
		ps[i] = t.T
	}
	return ps
}

// TBound is the period-aware bound of [23]:
//
//	Λ(τ) = Σ_{i=1}^{N−1} T'_{i+1}/T'_i + 2·T'_1/T'_N − N
//
// over the scaled periods T', sorted ascending: each period T_i becomes
// T_i·2^{k_i} with the unique k_i ≥ 0 that puts it in (T_max/2, T_max],
// where T_max is the largest period. This is the ScaleTaskSet
// transformation of [23]; it preserves RM schedulability analysis
// structure while exposing how "close to harmonic" the set is.
type TBound struct{}

// Name implements PUB.
func (TBound) Name() string { return "T-bound" }

// Value implements PUB.
func (b TBound) Value(ts task.Set) float64 { return b.ValueScratch(ts, new(Scratch)) }

// Deflatable implements PUB.
func (TBound) Deflatable() bool { return true }

// RBound is the ratio-based relaxation of the T-bound [23]:
//
//	Λ(τ) = (N−1)(r^{1/(N−1)} − 1) + 2/r − 1
//
// where r ∈ [1, 2) is the ratio between the maximum and minimum scaled
// period. r = 1 recovers the 100% harmonic bound; r → 2 recovers the L&L
// bound of N−1 tasks.
type RBound struct{}

// Name implements PUB.
func (RBound) Name() string { return "R-bound" }

// Value implements PUB.
func (b RBound) Value(ts task.Set) float64 { return b.ValueScratch(ts, new(Scratch)) }

// Deflatable implements PUB.
func (RBound) Deflatable() bool { return true }

func sortFloats(v []float64) {
	// Insertion sort: period vectors are small and this avoids pulling in
	// sort for a hot path used inside generators' rejection loops.
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// EffectiveRMTS returns the utilization bound RM-TS guarantees for the set
// when instantiated with PUB p: min(Λ(τ), 2Θ/(1+Θ)) (§V).
func EffectiveRMTS(p PUB, ts task.Set) float64 { return EffectiveRMTSScratch(p, ts, nil) }

// Min is a PUB combinator taking the pointwise minimum of its children —
// useful to instantiate RM-TS with "the best bound known for this set,
// capped". The minimum of deflatable bounds is deflatable.
type Min struct {
	Bounds []PUB
}

// Name implements PUB.
func (m Min) Name() string {
	name := "min("
	for i, b := range m.Bounds {
		if i > 0 {
			name += ","
		}
		name += b.Name()
	}
	return name + ")"
}

// Value implements PUB.
func (m Min) Value(ts task.Set) float64 { return m.ValueScratch(ts, new(Scratch)) }

// Deflatable implements PUB.
func (m Min) Deflatable() bool {
	for _, b := range m.Bounds {
		if !b.Deflatable() {
			return false
		}
	}
	return true
}

// Max is the pointwise maximum PUB combinator: valid because each child is
// individually a sufficient bound, so the largest still guarantees
// schedulability. The maximum of deflatable bounds is deflatable.
type Max struct {
	Bounds []PUB
}

// Name implements PUB.
func (m Max) Name() string {
	name := "max("
	for i, b := range m.Bounds {
		if i > 0 {
			name += ","
		}
		name += b.Name()
	}
	return name + ")"
}

// Value implements PUB.
func (m Max) Value(ts task.Set) float64 { return m.ValueScratch(ts, new(Scratch)) }

// Deflatable implements PUB.
func (m Max) Deflatable() bool {
	for _, b := range m.Bounds {
		if !b.Deflatable() {
			return false
		}
	}
	return true
}

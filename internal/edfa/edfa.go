// Package edfa implements exact uniprocessor EDF schedulability analysis
// for constrained-deadline sporadic tasks via the processor demand
// criterion (Baruah, Rosier & Howell): the system is schedulable iff the
// demand bound function satisfies dbf(t) ≤ t at every absolute deadline in
// the synchronous busy period. The check uses QPA (Zhang & Burns), which
// walks backwards from the end of the check interval — the busy period L,
// or the shorter Zhang & Burns bound La when L is provably within the
// analysis limit — visiting only a handful of points, making the test fast
// enough to sit inside packing loops. MaxAdditionalDemand, the EDF-TS
// window budget, descends from utilization and first-deadline caps along
// the points QPA refutes instead of bisecting over whole QPA runs.
//
// The paper positions its fixed-priority results against EDF-based
// splitting algorithms (§I cites a 65% bound as the EDF state of the art);
// this package is the analysis substrate for the EDF-TS comparator in
// internal/partition: each (fragment of a) task is modelled as an
// independent sporadic task (C, T, D ≤ T), where a split fragment's D is
// its window and its activation offset only delays demand (the synchronous
// dbf remains a sound upper bound).
package edfa

import (
	"math/big"
	"math/bits"

	"repro/internal/mathx"
	"repro/internal/task"
)

// Demand is one sporadic demand source: C units every T, due D after
// release (0 < C ≤ D ≤ T).
type Demand struct {
	C, T, D task.Time
}

// valid reports whether the source satisfies 0 < C ≤ D ≤ T.
func (s Demand) valid() bool { return s.C > 0 && s.C <= s.D && s.D <= s.T }

// DBF returns the demand bound function of the sources at time t:
// Σ max(0, ⌊(t − D_i)/T_i⌋ + 1) · C_i.
func DBF(sources []Demand, t task.Time) task.Time {
	var sum task.Time
	for _, s := range sources {
		if t < s.D {
			continue
		}
		n := (t-s.D)/s.T + 1
		sum = mathx.AddSat(sum, mathx.MulSat(n, s.C))
	}
	return sum
}

// Utilization returns ΣC/T of the sources.
func Utilization(sources []Demand) float64 {
	u := 0.0
	for _, s := range sources {
		u += float64(s.C) / float64(s.T)
	}
	return u
}

// BusyPeriod returns the length of the synchronous busy period: the least
// fixed point of L = Σ ⌈L/T_i⌉·C_i, saturating at limit (which the fixed
// point exceeds iff utilization is 1 or limit is too small).
func BusyPeriod(sources []Demand, limit task.Time) task.Time {
	var l task.Time
	for _, s := range sources {
		l = mathx.AddSat(l, s.C)
	}
	for {
		if l > limit {
			return limit
		}
		var next task.Time
		for _, s := range sources {
			next = mathx.AddSat(next, mathx.MulSat(mathx.CeilDiv(l, s.T), s.C))
		}
		if next == l {
			return l
		}
		l = next
	}
}

// analysisLimit caps the busy period the analysis is willing to examine.
// A longer busy period (utilization extremely close to 1) is rejected
// conservatively; with this repository's tick granularities that never
// triggers below ≈99.99% utilization. A constrained set whose float
// utilization passes the U ≤ 1 + utilEps test while its exact ΣC/T
// exceeds 1 would reach the same rejection, but only after a busy-period
// iteration that can crawl toward the limit a few ticks per step; qpa
// refuses it up front instead (overOne).
const analysisLimit = 1 << 34

// lastDeadlineBefore returns the largest absolute deadline point
// d_i + k·T_i strictly below t, or 0 if none exists.
func lastDeadlineBefore(sources []Demand, t task.Time) task.Time {
	var best task.Time
	for _, s := range sources {
		if t <= s.D {
			continue
		}
		k := (t - s.D - 1) / s.T
		if p := s.D + k*s.T; p > best {
			best = p
		}
	}
	return best
}

// utilEps is the float slack Schedulable's utilization test allows
// (U ≤ 1 + utilEps).
const utilEps = 1e-9

// The interval shortening: min(L, La) replaces L only when the float bound
// ΣC/(1−U) ≥ L puts L far below analysisLimit and 1−U is large enough
// (laMinSlack) that the float U cannot hide a set at or above 1; La is
// rounded up by laMargin, so rounding can only lengthen the walk.
const (
	laMinSlack = 1e-4
	laMargin   = 1.001
)

// Schedulable reports whether the demand sources are EDF-schedulable on a
// single processor. Exact for constrained-deadline sporadic tasks with
// utilization below 1 (and for implicit-deadline sets up to exactly 1);
// constrained sets at utilization ≥ 1 − 1e-9 whose busy period cannot be
// bounded are rejected conservatively.
func Schedulable(sources []Demand) bool {
	ok, _ := qpa(sources)
	return ok
}

// qpa is Schedulable naming its refutation: when the QPA walk finds a
// point t with dbf(t) > t it returns (false, t); every other refusal (an
// invalid source, utilization above 1, a busy period it cannot bound)
// returns (false, 0).
func qpa(sources []Demand) (bool, task.Time) {
	if len(sources) == 0 {
		return true, 0
	}
	u := 0.0
	implicit := true
	for _, s := range sources {
		if !s.valid() {
			return false, 0
		}
		u += float64(s.C) / float64(s.T)
		if s.D != s.T {
			implicit = false
		}
	}
	if u > 1+utilEps {
		return false, 0
	}
	if implicit {
		// Implicit deadlines: EDF is schedulable iff U ≤ 1.
		return true, 0
	}
	if u >= 1-utilEps && overOne(sources) {
		return false, 0 // the busy period is unbounded; see analysisLimit
	}
	l := checkEnd(sources, u)
	if l >= analysisLimit {
		return false, 0 // cannot bound the check interval; reject conservatively
	}
	// QPA: walk backwards from the last deadline before (or at) the end of
	// the check interval.
	var dmin task.Time = -1
	for _, s := range sources {
		if dmin < 0 || s.D < dmin {
			dmin = s.D
		}
	}
	t := lastDeadlineBefore(sources, l+1)
	for t >= dmin && t > 0 {
		h := DBF(sources, t)
		if h > t {
			return false, t
		}
		if h < t {
			t = h
			// t may now lie below every deadline; the loop condition ends
			// the walk. If it is not itself a deadline point, the next
			// dbf(t) equals dbf at the last deadline ≤ t, which is what
			// the criterion needs.
		} else {
			t = lastDeadlineBefore(sources, t)
		}
	}
	return true, 0
}

// overOne reports whether ΣC_i/T_i > 1 exactly. It runs only when the
// float sum is within utilEps of 1, where rounding can hide the answer.
// The sum is kept as num/den over den = lcm(T_i) in 128-bit integers, so
// the check does not allocate; a step that would overflow hands the sum to
// overOneBig.
func overOne(sources []Demand) bool {
	var nHi, nLo, dHi uint64
	dLo := uint64(1)
	for _, s := range sources {
		t, c := uint64(s.T), uint64(s.C)
		// num/den + c/t = (num·(t/g) + c·(den/g)) / ((den/g)·t), g = gcd(den, t)
		g := uint64(mathx.GCD(s.T, int64(bits.Rem64(dHi, dLo, t))))
		qHi, r := dHi/g, dHi%g
		qLo, _ := bits.Div64(r, dLo, g)
		ah, al, ok1 := mul128(nHi, nLo, t/g)
		bh, bl, ok2 := mul128(qHi, qLo, c)
		lo, carry := bits.Add64(al, bl, 0)
		hi, over := bits.Add64(ah, bh, carry)
		dh, dl, ok3 := mul128(qHi, qLo, t)
		if !ok1 || !ok2 || !ok3 || over != 0 {
			return overOneBig(sources)
		}
		nHi, nLo, dHi, dLo = hi, lo, dh, dl
	}
	return nHi > dHi || (nHi == dHi && nLo > dLo)
}

// mul128 returns (hi, lo)·y and whether it fits in 128 bits.
func mul128(hi, lo, y uint64) (uint64, uint64, bool) {
	h1, l1 := bits.Mul64(lo, y)
	h2, l2 := bits.Mul64(hi, y)
	rh, carry := bits.Add64(h1, l2, 0)
	return rh, l1, h2 == 0 && carry == 0
}

// overOneBig is overOne in arbitrary precision.
func overOneBig(sources []Demand) bool {
	num, den := new(big.Int), big.NewInt(1)
	var c, t big.Int
	for _, s := range sources {
		t.SetInt64(s.T)
		num.Add(num.Mul(num, &t), c.Mul(c.SetInt64(s.C), den))
		den.Mul(den, &t)
	}
	return num.Cmp(den) > 0
}

// checkEnd returns the end of the QPA check interval for valid,
// constrained sources of float utilization u ≤ 1 + utilEps: the busy
// period L (saturating at analysisLimit, which Schedulable rejects), or
// min(L, La) with La = Σ(T_i−D_i)U_i/(1−U) (Zhang & Burns) when L is
// provably below analysisLimit. No dbf(t) > t lies at or beyond La, and
// the proof of L < analysisLimit keeps the conservative rejection exactly
// where the plain busy-period walk puts it (DESIGN.md, "Sweep kernels
// outside RTA").
func checkEnd(sources []Demand, u float64) task.Time {
	if den := 1 - u; den > laMinSlack {
		var sumC, num float64
		for _, s := range sources {
			sumC += float64(s.C)
			num += float64(s.T-s.D) * float64(s.C) / float64(s.T)
		}
		// L < ΣC/(1−U), and La ≤ ΣC/(1−U) because (T−D)·C/T ≤ C.
		if sumC/den*laMargin < analysisLimit/2 {
			return BusyPeriod(sources, task.Time(num/den*laMargin)+1)
		}
	}
	return BusyPeriod(sources, analysisLimit)
}

// MaxAdditionalDemand returns the largest execution budget c ≤ cap such
// that adding a new source (c, t, d) keeps the sources EDF-schedulable,
// or 0 if even c = 1 does not fit. See MaxAdditionalDemandScratch.
func MaxAdditionalDemand(sources []Demand, t, d, cap task.Time) task.Time {
	c, _ := MaxAdditionalDemandScratch(sources, t, d, cap, nil)
	return c
}

// MaxAdditionalDemandScratch is MaxAdditionalDemand probing on buf (grown
// as needed and returned for reuse), so a warm buffer makes it
// allocation-free.
//
// Schedulable is monotone in c, and a point t with dbf(t) > t refutes
// every larger c as well, so the search descends by witness instead of
// bisecting: it starts from WindowCap (the largest c that passes the
// utilization test and fits the new source's first deadline), and while
// QPA refutes the current c at a point t, lowers it to
// ⌊(t − dbf_S(t)) / n(t)⌋, where n(t) counts the new source's jobs due by
// t. The first c QPA accepts is the maximum a bisection over [0, cap]
// finds. Only a refusal without a demand point (the conservative
// busy-period rejection) falls back to bisection below the current c.
func MaxAdditionalDemandScratch(sources []Demand, t, d, cap task.Time, buf []Demand) (task.Time, []Demand) {
	hi := WindowCap(sources, t, d, cap)
	if hi == 0 {
		return 0, buf
	}
	n := len(sources)
	buf = append(append(buf[:0], sources...), Demand{T: t, D: d})
	for hi > 0 {
		buf[n].C = hi
		ok, w := qpa(buf)
		if ok {
			return hi, buf
		}
		if w == 0 {
			break
		}
		var jobs task.Time
		if w >= d {
			jobs = (w-d)/t + 1
		}
		room := w - DBF(sources, w)
		if jobs == 0 || room <= 0 {
			return 0, buf // the sources alone leave no room by w
		}
		hi = room / jobs
	}
	// Bisection below hi, which is 0 or infeasible.
	lo := task.Time(0)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		buf[n].C = mid
		if Schedulable(buf) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, buf
}

// WindowCap returns the budget MaxAdditionalDemand's descent starts from:
// cap clamped to d, 0 for an invalid source or d > t, then lowered to the
// largest c that passes the utilization test and, unless every source is
// implicit, fits the new source's first deadline (dbf_S(d) + c ≤ d). It
// is an upper bound on MaxAdditionalDemand(sources, t, d, cap) that costs
// one DBF and no QPA walk.
func WindowCap(sources []Demand, t, d, cap task.Time) task.Time {
	if cap > d {
		cap = d
	}
	if cap <= 0 {
		return 0
	}
	implicit := d == t
	for _, s := range sources {
		if !s.valid() {
			return 0 // Schedulable refuses every c
		}
		implicit = implicit && s.D == s.T
	}
	if d > t {
		return 0
	}
	hi := utilizationCap(Utilization(sources), t, cap)
	if hi > 0 && !implicit {
		// dbf(d) = dbf_S(d) + c must stay ≤ d. (An all-implicit set is
		// judged by the float utilization test alone, which this integer
		// cap could undercut.)
		if room := d - DBF(sources, d); room < hi {
			hi = max(room, 0)
		}
	}
	return hi
}

// utilizationCap returns the largest c ≤ hi whose source c/t passes
// Schedulable's utilization test when added after sources of utilization
// uS (the same float expression, so the same verdict), or 0.
func utilizationCap(uS float64, t, hi task.Time) task.Time {
	fits := func(c task.Time) bool { return !(uS+float64(c)/float64(t) > 1+utilEps) }
	if fits(hi) {
		return hi
	}
	lo := task.Time(0)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

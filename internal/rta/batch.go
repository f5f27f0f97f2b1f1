// Struct-of-arrays RTA kernels (DESIGN.md §13). Every interferer set in
// this package is a pair of parallel slices — execution times cs and
// periods ts, highest priority first — so position i's higher-priority set
// is the prefix pair cs[:i], ts[:i]. ProcState keeps its residents in this
// layout, and the scalar list API (rta.go) carves the same pair from one
// buffer (Mirror).
//
// Each analysis quantity has exactly two kernels:
//
//   - the fixed point: fixpointFast and fixpointChecked;
//   - the testing-point slack [22]: slackBatchCapped and slackCheckedBatch;
//   - the max own load: maxOwnLoadBatch and maxOwnLoadCheckedBatch.
//
// The fast kernels hoist all safety out of the innermost demand loop: one
// saturating O(n) overflow precheck per probe (interferenceBound, batchSafe)
// proves that no demand evaluated during the probe can leave int64, and the
// loop then runs branch-free mathx.CeilDivU plus a multiply-accumulate over
// the two flat slices, with the bounds check eliminated (cs resliced to
// len(ts)). The checked kernels run per-term checked or saturating
// arithmetic and are exact on every int64 input; the fast kernels fall back
// to them whenever the precheck fails, and the scalar list API always runs
// them. On the shared domain the two kernels of a quantity return the same
// value (and, for the fixed point, the same verdict and iteration count);
// FuzzBatchVsScalarRTA pins both against the array-of-structs references
// kept in reference_test.go.
package rta

import (
	"math"

	"repro/internal/faultinject"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/task"
)

// BatchState is the struct-of-arrays resident mirror: parallel slices in
// priority order (highest first). Position i's higher-priority interferers
// are the prefixes cs[:i], ts[:i]. ProcState embeds one as its processor
// mirror; the breakdown experiments use a standalone BatchState as a
// cross-scale warm-start carry (EvaluateList).
type BatchState struct {
	cs   []task.Time // execution times (surcharged when owned by a ProcState)
	ts   []task.Time // periods
	dls  []task.Time // synthetic deadlines
	resp []task.Time // last converged response per position (0 = unknown)

	cur []task.Time // EvaluateList scratch: responses of the in-flight scale
	ccs []task.Time // EvaluateList scratch: execution times of the in-flight scale
	nm  []task.Time // slackBatchCapped scratch: next-multiple frontier per source
}

func (b *BatchState) len() int { return len(b.cs) }

func (b *BatchState) reset() {
	b.cs = b.cs[:0]
	b.ts = b.ts[:0]
	b.dls = b.dls[:0]
	b.resp = b.resp[:0]
}

// insert mirrors a committed load at position pos; resp is managed by the
// caller (staged adoption vs 0-fill).
func (b *BatchState) insert(pos int, c, t, d task.Time) {
	b.cs = insertTime(b.cs, pos, c)
	b.ts = insertTime(b.ts, pos, t)
	b.dls = insertTime(b.dls, pos, d)
}

func (b *BatchState) remove(pos int) {
	b.cs = append(b.cs[:pos], b.cs[pos+1:]...)
	b.ts = append(b.ts[:pos], b.ts[pos+1:]...)
	b.dls = append(b.dls[:pos], b.dls[pos+1:]...)
}

// growTimes returns (*buf)[:n], reallocating only when capacity is short —
// the contents are unspecified; callers overwrite every element they read.
func growTimes(buf *[]task.Time, n int) []task.Time {
	if cap(*buf) < n {
		*buf = make([]task.Time, n+n/2+4)
	}
	return (*buf)[:n]
}

// interferenceBound returns a saturating upper bound on the interference
// sum Σ_j ⌈x/T_j⌉·C_j over the given interferer set for ANY x ≤ maxL, and
// whether that bound (and hence every intermediate demand term) fits in
// uint64 without wrapping. ⌈x/T⌉ ≤ x/T + 1 ≤ maxL/T + 1 bounds each term
// with one division, so a single O(n) pass licenses the entire unchecked
// fast path of a probe: every iterate r evaluated by the kernel satisfies
// r ≤ maxL (over-limit iterates return before the next demand evaluation),
// so own + bound ≤ MaxInt64 proves no demand can overflow.
func interferenceBound(cs, ts []task.Time, maxL task.Time) (uint64, bool) {
	var acc uint64
	cs = cs[:len(ts)]
	for k, t := range ts {
		c := uint64(cs[k])
		jobs := uint64(maxL)/uint64(t) + 1
		if c != 0 && jobs > math.MaxUint64/c {
			return 0, false
		}
		term := jobs * c
		if acc+term < acc {
			return 0, false
		}
		acc += term
	}
	return acc, true
}

// batchSafe reports whether fixpointFast may run for a task with execution
// own against interferers (cs, ts) and iterates bounded by maxL. A
// division-free test decides first whenever it can: each term
// ⌈x/T_j⌉·C_j is at most (maxL+1)·C_j, so own + bound ≤ (maxL+1)·s with
// s = own + ΣC_j, which is below 2^63 when 0 ≤ maxL < 2^31 and s < 2^32. Only
// when that test fails does interferenceBound run, with one division per
// interferer; the answer is the same either way.
func batchSafe(own task.Time, cs, ts []task.Time, maxL task.Time) bool {
	if 0 <= maxL && maxL < 1<<31 {
		s := uint64(own)
		for _, c := range cs[:len(ts)] {
			if s += uint64(c); s >= 1<<32 {
				break
			}
		}
		if s < 1<<32 {
			return true
		}
	}
	bound, ok := interferenceBound(cs, ts, maxL)
	return ok && bound <= uint64(math.MaxInt64)-uint64(own)
}

// fixpointFast is the unchecked fixed-point kernel: the least fixed point
// of R = own + Σ ⌈R/T_j⌉·C_j from a valid lower-bound start, for inputs
// proven overflow-free by batchSafe. Control flow — including the order of
// the limit, fault-injection and MaxIters checks and the monotonicity panic
// — replicates fixpointChecked exactly, so the two kernels return identical
// (response, verdict, iters) triples on the shared domain.
func fixpointFast(own task.Time, cs, ts []task.Time, limit, start task.Time) (task.Time, Verdict, int64) {
	if own > limit {
		return own, VerdictExceedsLimit, 0
	}
	if faultinject.ShouldAbortRTA() {
		return start, VerdictAborted, 0
	}
	max := MaxIters
	r := start
	iters := int64(0)
	cs = cs[:len(ts)] // hoist the bounds check out of the demand loop
	for {
		if r > limit {
			return r, VerdictExceedsLimit, iters
		}
		if iters >= max {
			return r, VerdictAborted, iters
		}
		next := own
		for k, t := range ts {
			next += mathx.CeilDivU(r, t) * cs[k]
		}
		iters++
		if next == r {
			return r, VerdictFits, iters
		}
		if next < r {
			panic("rta: response-time iteration decreased")
		}
		r = next
	}
}

// fixpointChecked is the checked fixed-point kernel, exact on every int64
// input: the least fixed point of R = own + Σ ⌈R/T_j⌉·C_j, starting from
// start, which MUST be a valid lower bound on the least fixed point (any
// such start converges to the same fixed point: for every r < lfp the
// demand function satisfies f(r) > r by Knaster–Tarski, so the iterates
// increase monotonically towards lfp and never overshoot it). iters counts
// demand evaluations (0 when own alone already exceeds limit). Kept
// separate from fixpointFast so the fast loop stays free of the
// checked-math branches.
func fixpointChecked(own task.Time, cs, ts []task.Time, limit, start task.Time) (task.Time, Verdict, int64) {
	if own > limit {
		return own, VerdictExceedsLimit, 0
	}
	if faultinject.ShouldAbortRTA() {
		// Injected iteration-cap abort: report the current iterate exactly
		// as the genuine MaxIters path would, without doing the work.
		return start, VerdictAborted, 0
	}
	r := start
	iters := int64(0)
	cs = cs[:len(ts)]
	for {
		if r > limit {
			return r, VerdictExceedsLimit, iters
		}
		if iters >= MaxIters {
			return r, VerdictAborted, iters
		}
		next := own
		ok := true
		for k, t := range ts {
			var contrib task.Time
			if contrib, ok = mathx.MulChecked(mathx.CeilDiv(r, t), cs[k]); ok {
				next, ok = mathx.AddChecked(next, contrib)
			}
			if !ok {
				break
			}
		}
		iters++
		if !ok {
			// The demand at iterate r overflows int64, so the true demand —
			// and with it the least fixed point — exceeds MaxInt64 ≥ limit:
			// an exact over-limit verdict, not a silent wrap.
			return task.Time(math.MaxInt64), VerdictExceedsLimit, iters
		}
		if next == r {
			return r, VerdictFits, iters
		}
		if next < r {
			panic("rta: response-time iteration decreased")
		}
		r = next
	}
}

// fixpoint dispatches on the probe-level overflow precheck.
func fixpoint(own task.Time, cs, ts []task.Time, limit, start task.Time, fast bool) (task.Time, Verdict, int64) {
	if fast {
		return fixpointFast(own, cs, ts, limit, start)
	}
	return fixpointChecked(own, cs, ts, limit, start)
}

// EvaluateList reports whether every subtask of the priority-sorted list
// meets its synthetic deadline (the batch equivalent of
// ProcessorSchedulable), using b as a warm-start carry across calls on
// RESCALED VERSIONS OF THE SAME SET — the breakdown bisection's access
// pattern, where only execution times change between calls.
//
// Soundness of the carry (DESIGN.md §13): the cache holds the converged
// responses of the last ACCEPTED evaluation. When the incoming list has the
// same length, periods and deadlines positionally, and no execution time
// decreased (the deflation direction — bisection only re-evaluates above
// the last accepted scale), every demand function only grew, so each cached
// fixed point is a valid lower bound and iterate-from-it converges to the
// same least fixed point a cold start would. Any mismatch (different shape,
// a shrunken C, or carry=false) falls back to cold starts for the whole
// list. The cache is updated only on a fully-accepted evaluation, keeping
// it anchored at the bisection's monotone lo-sequence.
func (b *BatchState) EvaluateList(list []task.Subtask, carry bool) bool {
	n := len(list)
	warm := carry && len(b.cs) == n
	if warm {
		for i := range list {
			if b.ts[i] != list[i].T || b.dls[i] != list[i].Deadline || b.cs[i] > list[i].C {
				warm = false
				break
			}
		}
	}
	if !warm {
		// (Re)key the cache to this shape with unknown responses; the C key
		// is zeroed so an immediately following same-shape call passes the
		// monotonicity guard but still cold-starts off resp = 0.
		b.cs = growTimes(&b.cs, n)
		b.ts = growTimes(&b.ts, n)
		b.dls = growTimes(&b.dls, n)
		b.resp = growTimes(&b.resp, n)
		for i := range list {
			b.cs[i] = 0
			b.ts[i] = list[i].T
			b.dls[i] = list[i].Deadline
			b.resp[i] = 0
		}
	}
	// The in-flight scale's execution times live in their own scratch: the
	// cache (b.cs, b.resp) must keep the last ACCEPTED state, or a rejected
	// probe would wipe the carry the next accepted-side probe could use.
	ccs := growTimes(&b.ccs, n)
	cur := growTimes(&b.cur, n)
	maxL := task.Time(0)
	for i := range list {
		ccs[i] = list[i].C
		if b.dls[i] > maxL {
			maxL = b.dls[i]
		}
	}
	fast := true
	if n > 0 {
		bound, ok := interferenceBound(ccs, b.ts, maxL)
		maxC := task.Time(0)
		for _, c := range ccs {
			if c > maxC {
				maxC = c
			}
		}
		fast = ok && bound <= uint64(math.MaxInt64)-uint64(maxC)
	}
	sum := task.Time(0)
	for i := 0; i < n; i++ {
		own := ccs[i]
		start := mathx.AddSat(sum, own)
		if warm && b.resp[i] > start {
			start = b.resp[i]
			if obs.On() {
				cWarmStarts.Inc()
			}
		}
		r, v, iters := fixpoint(own, ccs[:i], b.ts[:i], b.dls[i], start, fast)
		account(v, iters)
		if v != VerdictFits {
			return false
		}
		cur[i] = r
		sum = mathx.AddSat(sum, own)
	}
	copy(b.cs, ccs)
	copy(b.resp, cur)
	return true
}

// slackBatchCapped is the fast testing-point slack kernel: the slack of a
// task (c, d) against a period-t interferer over interferers (cs, ts) (see
// Slack), with an early exit for min-fold callers (ProcState.SlackAtMost).
// The slack is a running MAXIMUM over testing points, so as soon as that
// partial maximum reaches cap the final value is known to be ≥ cap and
// enumeration stops. Below cap the result is exactly slackCheckedBatch's —
// the point SET is identical (multiples of every T_j and of t up to d, plus
// d itself, here deduplicated), and a maximum is insensitive to order and
// duplicates; a cap of math.MaxInt64 therefore makes it exact. At or above
// cap only the ≥-cap fact is meaningful. The overflow fallback ignores the
// cap (exact is trivially ≥ any partial).
//
// Rather than re-derive each point's demand with one division per
// interferer, this scan walks the points in ascending merged order and
// maintains the demand incrementally: nm[j] is the smallest multiple of
// source j's period that is ≥ the current point x, so ⌈x/T_j⌉ = nm[j]/T_j,
// and the running demand sum advances by C_j exactly when the walk passes a
// multiple of T_j. Each point costs one pass over the frontier that both
// advances the sources sitting at x and finds the next point — no
// divisions. scratch holds the nm frontier (len(ts)+1 entries; the last
// tracks t for the jobs divisor) and is grown, never shrunk, by the callee.
func slackBatchCapped(c, d task.Time, cs, ts []task.Time, t, cap task.Time, scratch *[]task.Time) task.Time {
	if !batchSafe(c, cs, ts, d) {
		return slackCheckedBatch(c, d, cs, ts, t)
	}
	cSlackCalls.Inc()
	k := len(ts)
	cs = cs[:k]
	points := int64(0)
	best := task.Time(-1)
	// Point d first: the largest point usually carries the largest slack, so
	// the cap exit tends to fire before the merged walk even starts. Demand
	// here is computed with direct divisions, once.
	if d > 0 {
		points++
		demand := c
		for j, tj := range ts {
			demand += mathx.CeilDivU(d, tj) * cs[j]
		}
		if demand <= d {
			best = (d - demand) / mathx.CeilDivU(d, t)
		}
	}
	if best < cap {
		nm := growTimes(scratch, k+1)
		// Initial frontier: the first multiple of every period. The demand
		// sum starts at one job of every interferer — exact for any x in
		// (0, min T_j], and maintained exact from there by the advances.
		sum := c
		for j, tj := range ts {
			nm[j] = tj
			sum += cs[j]
		}
		nm[k] = t
		jobs := task.Time(1) // invariant: nm[k] = jobs·t, so ⌈x/t⌉ = jobs
		x := t
		for _, v := range nm[:k] {
			x = min(x, v)
		}
		for x < d { // ≥-d points are covered by the initial d visit
			points++
			if sum <= x {
				if e := (x - sum) / jobs; e > best {
					best = e
					if best >= cap {
						break
					}
				}
			}
			if nm[k] == x {
				jobs++
				nm[k] = mathx.AddSat(x, t)
			}
			next := nm[k]
			for j, v := range nm[:k] {
				if v == x {
					sum += cs[j]
					v = mathx.AddSat(x, ts[j])
					nm[j] = v
				}
				next = min(next, v)
			}
			x = next
		}
	}
	cSlackPoints.Add(points)
	if best < 0 {
		return 0
	}
	if best == math.MaxInt64 {
		return math.MaxInt64
	}
	return best
}

// slackCheckedBatch is the checked testing-point slack kernel (see Slack):
// per-point saturating demand and checked m·T enumeration, exact on every
// int64 input — the overflow-capable fallback of slackBatchCapped.
func slackCheckedBatch(c, d task.Time, cs, ts []task.Time, t task.Time) task.Time {
	best := task.Time(-1)
	cSlackCalls.Inc()
	points := int64(0)
	cs = cs[:len(ts)]
	check := func(x task.Time) {
		if x <= 0 || x > d {
			return
		}
		points++
		demand := c
		for k, tj := range ts {
			demand = mathx.AddSat(demand, mathx.MulSat(mathx.CeilDiv(x, tj), cs[k]))
		}
		if demand > x {
			return
		}
		jobs := mathx.CeilDiv(x, t)
		if jobs == 0 {
			jobs = 1
		}
		e := (x - demand) / jobs
		if e > best {
			best = e
		}
	}
	check(d)
	for _, tj := range ts {
		for m := task.Time(1); ; m++ {
			x, ok := mathx.MulChecked(m, tj)
			if !ok || x > d {
				break
			}
			check(x)
		}
	}
	for m := task.Time(1); ; m++ {
		x, ok := mathx.MulChecked(m, t)
		if !ok || x > d {
			break
		}
		check(x)
	}
	cSlackPoints.Add(points)
	if best < 0 {
		return 0
	}
	if best == math.MaxInt64 {
		return math.MaxInt64
	}
	return best
}

// maxOwnLoadBatch is the fast max-own-load kernel: the largest own
// execution time admissible at deadline d under interferers (cs, ts) (see
// MaxOwnLoad), with the same testing-point enumeration and
// rta.maxload.points totals as maxOwnLoadCheckedBatch.
func maxOwnLoadBatch(cs, ts []task.Time, d task.Time) task.Time {
	if d <= 0 || !batchSafe(0, cs, ts, d) {
		return maxOwnLoadCheckedBatch(cs, ts, d)
	}
	best := task.Time(0)
	points := int64(0)
	cs = cs[:len(ts)]
	check := func(x task.Time) {
		points++
		interf := task.Time(0)
		for k, tj := range ts {
			interf += mathx.CeilDivU(x, tj) * cs[k]
		}
		if interf >= x {
			return
		}
		if c := x - interf; c > best {
			best = c
		}
	}
	check(d)
	for _, tj := range ts {
		x := tj
		for m := d / tj; m > 0; m-- {
			check(x)
			x += tj
		}
	}
	cLoadPoints.Add(points)
	return best
}

// maxOwnLoadCheckedBatch is the checked max-own-load kernel (see
// MaxOwnLoad): per-point saturating interference and checked m·T
// enumeration, exact on every int64 input — the overflow-capable fallback
// of maxOwnLoadBatch.
func maxOwnLoadCheckedBatch(cs, ts []task.Time, d task.Time) task.Time {
	if d <= 0 {
		return 0
	}
	best := task.Time(0)
	points := int64(0)
	cs = cs[:len(ts)]
	check := func(x task.Time) {
		if x <= 0 || x > d {
			return
		}
		points++
		interf := task.Time(0)
		for k, tj := range ts {
			interf = mathx.AddSat(interf, mathx.MulSat(mathx.CeilDiv(x, tj), cs[k]))
		}
		if interf >= x {
			return
		}
		if c := x - interf; c > best {
			best = c
		}
	}
	check(d)
	for _, tj := range ts {
		for m := task.Time(1); ; m++ {
			x, ok := mathx.MulChecked(m, tj)
			if !ok || x > d {
				break
			}
			check(x)
		}
	}
	cLoadPoints.Add(points)
	return best
}

// Struct-of-arrays RTA kernels (DESIGN.md §13). Every interferer set in
// this package is a pair of parallel slices — execution times cs and
// periods ts, highest priority first — so position i's higher-priority set
// is the prefix pair cs[:i], ts[:i]. ProcState keeps its residents in this
// layout.
//
// Each analysis quantity has exactly one kernel:
//
//   - the fixed point: fixpoint;
//   - the testing-point slack [22]: slackBatchCapped;
//   - the max own load: maxOwnLoadBatch.
//
// The kernels run unchecked int64 arithmetic: branch-free mathx.CeilDivU
// plus a multiply-accumulate over the two flat slices, with the bounds
// check eliminated (cs resliced to len(ts)). That is exact on the model's
// domain (task.MaxTime, task.MaxTasks), which every edge refuses to leave:
// DESIGN.md §13 shows, caller by caller, that no demand evaluated there
// leaves int64. FuzzBatchVsScalarRTA pins every kernel, up to the domain
// corner, against the array-of-structs references kept in
// reference_test.go, whose arithmetic stays checked.
package rta

import (
	"repro/internal/faultinject"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/task"
)

// BatchState is the struct-of-arrays resident mirror: parallel slices in
// priority order (highest first). Position i's higher-priority interferers
// are the prefixes cs[:i], ts[:i]. ProcState embeds one as its processor
// mirror; the uniprocessor breakdown experiment (E18) uses a standalone
// BatchState as a cross-scale warm-start carry (EvaluateList).
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

// fixpoint is the fixed-point kernel: the least fixed point of
// R = own + Σ ⌈R/T_j⌉·C_j, starting from start, which MUST be a valid lower
// bound on the least fixed point (any such start converges to the same
// fixed point: for every r < lfp the demand function satisfies f(r) > r by
// Knaster–Tarski, so the iterates increase monotonically towards lfp and
// never overshoot it). iters counts demand evaluations (0 when own alone
// already exceeds limit). Every demand is evaluated at an iterate r ≤
// limit, and on the model's domain no such demand leaves int64 (DESIGN.md
// §13), so the loop runs branch-free mathx.CeilDivU plus a
// multiply-accumulate with the bounds check hoisted (cs resliced to
// len(ts)).
func fixpoint(own task.Time, cs, ts []task.Time, limit, start task.Time) (task.Time, Verdict, int64) {
	if own > limit {
		return own, VerdictExceedsLimit, 0
	}
	if faultinject.ShouldAbortRTA() {
		// Injected iteration-cap abort: report the current iterate exactly
		// as the genuine MaxIters path would, without doing the work.
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

// EvaluateList reports whether every subtask of the priority-sorted list
// meets its synthetic deadline (the batch equivalent of
// ProcessorSchedulable), using b as a warm-start carry across calls on
// RESCALED VERSIONS OF THE SAME SET — the uniprocessor breakdown
// bisection's access pattern, where only execution times change between calls.
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
	for i := range list {
		ccs[i] = list[i].C
	}
	sum := task.Time(0)
	for i := 0; i < n; i++ {
		own := ccs[i]
		start := sum + own
		if warm && b.resp[i] > start {
			start = b.resp[i]
			if obs.On() {
				cWarmStarts.Inc()
			}
		}
		r, v, iters := fixpoint(own, ccs[:i], b.ts[:i], b.dls[i], start)
		account(v, iters)
		if v != VerdictFits {
			return false
		}
		cur[i] = r
		sum += own
	}
	copy(b.cs, ccs)
	copy(b.resp, cur)
	return true
}

// slackBatchCapped is the testing-point slack kernel [22]: for a task with
// execution c and deadline d under interferers (cs, ts), the largest extra
// budget e such that a new highest-priority interferer (e, t) keeps it
// schedulable, i.e. the largest e with
//
//	∃ x ∈ (0, d]:  c + Σ_j ⌈x/T_j⌉C_j + ⌈x/t⌉·e ≤ x,
//
// over the exact testing set {m·T_j ≤ d} ∪ {m·t ≤ d} ∪ {d} (0 if none;
// ⌈x/t⌉ ≥ 1 bounds it by d), with an early exit for min-fold callers
// (ProcState.SlackAtMost).
// The slack is a running MAXIMUM over testing points, so as soon as that
// partial maximum reaches cap the final value is known to be ≥ cap and
// enumeration stops. Below cap the result is exact — a maximum is
// insensitive to the order of the (deduplicated) testing points — and a
// cap of math.MaxInt64 therefore gives the exact slack. At or above cap
// only the ≥-cap fact is meaningful.
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
				nm[k] = x + t
			}
			next := nm[k]
			for j, v := range nm[:k] {
				if v == x {
					sum += cs[j]
					v = x + ts[j]
					nm[j] = v
				}
				next = min(next, v)
			}
			x = next
		}
	}
	cSlackPoints.Add(points)
	return max(best, 0)
}

// maxOwnLoadBatch is the max-own-load kernel: the largest own execution
// time c admissible at deadline d under interferers (cs, ts), i.e. the
// largest c with ∃ x ∈ (0, d]: c + Σ_j ⌈x/T_j⌉C_j ≤ x, over the testing
// points {m·T_j ≤ d} ∪ {d}; 0 when even an infinitesimal task would miss d.
func maxOwnLoadBatch(cs, ts []task.Time, d task.Time) task.Time {
	if d <= 0 {
		return 0
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

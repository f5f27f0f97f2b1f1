// Incremental analysis engine: per-processor warm-start caching for exact
// RTA (the paper's §IV-A admission loop is where all the fixed-point work
// happens, and the E2 metrics show RM-TS spending ~10⁴ iterations per task
// set there).
//
// A ProcState shadows one processor's priority-sorted resident list with
// three things a from-scratch analysis rebuilds on every probe:
//
//  1. the interference mirror — the residents as a struct-of-arrays
//     BatchState (parallel C/T/deadline/response slices, see batch.go), kept
//     in priority order so the higher-priority set of position i is a pair
//     of slice prefixes, with zero allocation per probe;
//  2. the response cache — the last converged response time per resident.
//     Partitioners only ever ADD load, and the demand function is monotone
//     in added interference, so an old fixed point is a valid lower bound
//     on the new one; the fixed-point iteration converges to the same
//     least fixed point from any lower bound (see fixpoint), so
//     warm starts are exact, not approximate;
//  3. the affected-range skip — a candidate inserted at priority position
//     pos adds interference only to residents at positions ≥ pos; the
//     residents before pos keep the exact response they were admitted
//     with, and re-checking them is provably redundant (every resident was
//     schedulable when the last admission committed).
//
// Equivalence contract: every admission decision, split portion and
// response value equals a from-scratch analysis of the same surcharged view
// (a freshly loaded state, see Load), because the least fixed point is
// unique; only the iteration counts (rta.iterations, rta.iters_per_call)
// are smaller. The rta fuzz targets pin ProcState and BatchState against
// the array-of-structs references in reference_test.go, and the partition
// package's fingerprint digest and the experiments golden test pin the
// decisions built on them.
package rta

import (
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/task"
)

// Cache-effectiveness instrumentation (no-ops unless obs.SetEnabled):
// warm_starts counts fixed points started from a cached response,
// skipped_residents counts per-probe residents not re-analysed because the
// candidate cannot affect them.
var (
	cWarmStarts   = obs.NewCounter("rta.cache.warm_starts")
	cSkippedHP    = obs.NewCounter("rta.cache.skipped_residents")
	cStagedAdopts = obs.NewCounter("rta.cache.staged_adoptions")
)

// ProcState is the incremental analysis state of one processor. Create one
// per processor at the start of a partitioning run, mirror every committed
// subtask with Insert (or a whole finished list with Load), and probe it
// with AdmitAt / ProbeAt / SlackAtMost / MaxOwnLoadAt / ResponseAt. The
// zero value is ready to use (empty processor, no surcharge).
//
// A ProcState is not safe for concurrent use; partitioning runs are
// single-goroutine per task set (the experiment harness parallelizes over
// task sets, each with its own states).
type ProcState struct {
	// Surcharge is the per-fragment analysis surcharge (overhead-aware
	// admission, see partition/overhead.go). Every C mirrored into the
	// state — resident and candidate alike — is inflated by it. Zero
	// reproduces the paper's zero-overhead analysis.
	Surcharge task.Time

	idx []int      // resident TaskIndex, priority order
	b   BatchState // SoA mirror: (C+Surcharge, T, deadline, cached response)

	// Probe scratch: the post-insert view of one AdmitAt probe — residents
	// with the candidate spliced in at its priority position — so the whole
	// probe runs over two flat arrays with no per-position extra-interferer
	// special case.
	pcs []task.Time
	pts []task.Time

	// Staging from the last successful AdmitAt probe: if the very next
	// Insert commits exactly that candidate, the responses computed during
	// the probe (which already include the candidate's interference) are
	// adopted as the new cache — they are the true converged fixed points
	// of the post-insert processor.
	staged      []task.Time
	stagedPos   int
	stagedC     task.Time // surcharged
	stagedT     task.Time
	stagedD     task.Time
	stagedValid bool
}

// NewProcStates returns one ProcState per processor, all sharing the given
// analysis surcharge.
func NewProcStates(m int, surcharge task.Time) []ProcState {
	return ResetProcStates(nil, m, surcharge)
}

// ResetProcStates recycles a ProcState slice from a previous partitioning
// run into m empty states with the given surcharge, growing it only when
// the capacity (including buffers of states beyond the previous length) is
// insufficient. The result is observationally identical to
// NewProcStates(m, surcharge); reusing the slice preserves each state's
// mirror/cache buffer capacities so steady-state runs allocate nothing.
func ResetProcStates(states []ProcState, m int, surcharge task.Time) []ProcState {
	if cap(states) < m {
		grown := make([]ProcState, m)
		// Reslice to capacity so buffers owned by states past the previous
		// length survive the grow.
		copy(grown, states[:cap(states)])
		states = grown
	} else {
		states = states[:m]
	}
	for q := range states {
		states[q].Reset(surcharge)
	}
	return states
}

// Reset empties the state for a new partitioning run, keeping the mirror
// and cache buffers for reuse.
func (ps *ProcState) Reset(surcharge task.Time) {
	ps.Surcharge = surcharge
	ps.idx = ps.idx[:0]
	ps.b.reset()
	ps.stagedValid = false
}

// Len returns the number of mirrored residents.
func (ps *ProcState) Len() int { return ps.b.len() }

// PosFor returns the priority position a load with task index prio would
// be inserted at — the first position whose resident has a larger index —
// matching task.Assignment.Add's ordering exactly.
func (ps *ProcState) PosFor(prio int) int {
	pos := 0
	for pos < len(ps.idx) && ps.idx[pos] <= prio {
		pos++
	}
	return pos
}

// Insert mirrors a committed subtask (after the owning task.Assignment.Add)
// and returns its priority position. If the subtask matches the staged
// candidate of the immediately preceding successful AdmitAt, the probe's
// converged responses become the new cache; otherwise the cached responses
// of displaced residents are kept — they remain valid lower bounds, since
// the insertion only added interference.
func (ps *ProcState) Insert(s task.Subtask) int {
	pos := ps.PosFor(s.TaskIndex)
	c := s.C + ps.Surcharge
	ps.idx = insertInt(ps.idx, pos, s.TaskIndex)
	ps.b.insert(pos, c, s.T, s.Deadline)
	if ps.stagedValid && ps.stagedPos == pos && ps.stagedC == c && ps.stagedT == s.T && ps.stagedD == s.Deadline {
		ps.b.resp = append(ps.b.resp[:0], ps.staged[:ps.b.len()]...)
		if obs.On() {
			cStagedAdopts.Inc()
		}
	} else {
		ps.b.resp = insertTime(ps.b.resp, pos, 0)
	}
	ps.stagedValid = false
	return pos
}

// Load replaces the residents with list, mirrored in list order: position
// i is priority i whatever the TaskIndex values, so PosFor places a
// candidate correctly only when they ascend, as in every
// task.Assignment list. Every C is surcharged and every cached response is
// unknown, so each probe of a loaded state is a from-scratch analysis.
func (ps *ProcState) Load(list []task.Subtask) {
	n := len(list)
	if cap(ps.idx) < n {
		ps.idx = make([]int, n)
	}
	ps.idx = ps.idx[:n]
	b := &ps.b
	b.cs, b.ts, b.dls, b.resp = growTimes(&b.cs, n), growTimes(&b.ts, n), growTimes(&b.dls, n), growTimes(&b.resp, n)
	for i, s := range list {
		ps.idx[i] = s.TaskIndex
		b.cs[i], b.ts[i], b.dls[i], b.resp[i] = s.C+ps.Surcharge, s.T, s.Deadline, 0
	}
	ps.stagedValid = false
}

// AdmitAt reports whether the processor stays schedulable when a new load
// (c, t) with priority index prio is inserted at its priority position and
// the new load itself meets deadline d, with c taken as the RAW execution
// time (the surcharge is added internally).
//
// Residents above the insertion position are skipped (the candidate cannot
// interfere with them, and the processor invariant — every resident is
// schedulable in the current configuration, whether its admission came from
// RTA or the sufficient prefilter — makes their re-check redundant).
//
// The probe materializes the post-insert view once — candidate spliced into
// the scratch arrays (pcs, pts) at pos — so position k's interferers are
// plain prefixes. The caller must have refused c + Surcharge > d (the
// candidate's own "no", fitsWhole does it first), so every interferer of
// the view satisfies C′ ≤ T and no demand leaves int64 (DESIGN.md §13).
// Each position's fixed point is independent of the others (same view,
// same limit), so the verdict is their AND in any order and the probe
// visits them cheapest refusal first (DESIGN.md §13): the lowest-priority
// position n, which carries the most interference and is where a refused
// probe almost always fails, then pos…n−1, returning at the first refusal.
// A resident below the candidate starts from max(cold bound, r + c′·⌈r/t⌉),
// with r its cached response and c′ the surcharged candidate (see
// warmStart). The verdict and the staged responses equal the from-scratch
// ones.
func (ps *ProcState) AdmitAt(prio int, c, t, d task.Time) bool {
	cand := c + ps.Surcharge
	pos := ps.PosFor(prio)
	ps.stagedValid = false
	n := ps.b.len()
	if cap(ps.staged) < n+1 {
		ps.staged = make([]task.Time, n+1)
	}
	staged := ps.staged[:n+1]
	pcs, pts := ps.splice(pos, cand, t)

	// prefix is the classic cold-start bound's running sum over positions
	// above k (the bound for position k is sum(pcs[:k]) + pcs[k]); limits
	// come from d at pos and the resident deadlines below it.
	if obs.On() && pos > 0 {
		cSkippedHP.Add(int64(pos))
	}
	copy(staged[:pos], ps.b.resp[:pos])
	prefix := sum(pcs[:pos])
	total := prefix + sum(pcs[pos:])
	limit, start := d, total
	if n > pos {
		limit, start = ps.b.dls[n-1], ps.warmStart(n-1, total, cand, t)
	}
	r, v, iters := fixpoint(pcs[n], pcs[:n], pts[:n], limit, start)
	account(v, iters)
	if v != VerdictFits {
		return false
	}
	staged[n] = r
	for k := pos; k < n; k++ {
		own := pcs[k]
		limit, start := d, prefix+own
		if k > pos {
			limit, start = ps.b.dls[k-1], ps.warmStart(k-1, start, cand, t)
		}
		r, v, iters := fixpoint(own, pcs[:k], pts[:k], limit, start)
		account(v, iters)
		if v != VerdictFits {
			return false
		}
		staged[k] = r
		prefix += own
	}

	ps.stagedValid = true
	ps.stagedPos = pos
	ps.stagedC = cand
	ps.stagedT = t
	ps.stagedD = d
	return true
}

// warmStart returns the start of resident i's fixed point once a candidate
// of surcharged execution cand and period t is inserted above it: the
// larger of the cold bound and r + cand·⌈r/t⌉, where r is the cached
// response (0 = unknown, which gives 0). The latter is a lower bound on the
// post-insert response R′ = f(R′) + cand·⌈R′/t⌉, where f is the resident's
// pre-insert demand: r is at most the pre-insert least fixed point R ≤ R′,
// and f(r) ≥ r for every r ≤ R (Knaster–Tarski), so r + cand·⌈r/t⌉ ≤
// f(r) + cand·⌈r/t⌉ ≤ R′ by monotonicity. Fixed points started there
// count as warm starts. The start is at most the demand f(r) + cand·⌈r/t⌉
// at an iterate r no larger than the resident's deadline, which stays in
// int64 on the model's domain (DESIGN.md §13).
func (ps *ProcState) warmStart(i int, cold, cand, t task.Time) task.Time {
	r := ps.b.resp[i]
	w := r + cand*mathx.CeilDivU(r, t)
	if w <= cold {
		return cold
	}
	if obs.On() {
		cWarmStarts.Inc()
	}
	return w
}

// splice materializes the post-insert view of a candidate (surcharged
// execution cand, period t) at priority position pos into the probe
// scratch.
func (ps *ProcState) splice(pos int, cand, t task.Time) (pcs, pts []task.Time) {
	n := ps.b.len()
	pcs = growTimes(&ps.pcs, n+1)
	pts = growTimes(&ps.pts, n+1)
	copy(pcs, ps.b.cs[:pos])
	pcs[pos] = cand
	copy(pcs[pos+1:], ps.b.cs[pos:])
	copy(pts, ps.b.ts[:pos])
	pts[pos] = t
	copy(pts[pos+1:], ps.b.ts[pos:])
	return pcs, pts
}

// sum returns Σ cs, the classic cold-start bound's running sum.
func sum(cs []task.Time) task.Time {
	s := task.Time(0)
	for _, c := range cs {
		s += c
	}
	return s
}

// Probe is the exact-RTA evidence of one candidate on one processor (see
// ProbeAt): the candidate's own fixed point against its deadline, and the
// highest-priority resident whose deadline breaks once the candidate
// interferes.
type Probe struct {
	OwnResponse task.Time
	OwnVerdict  Verdict
	// Blocked is the breaking resident's priority position in the current
	// (pre-insert) resident order; -1 when every resident still fits.
	Blocked         int
	BlockedResponse task.Time
	BlockedVerdict  Verdict
}

// ProbeAt recomputes the admission of a candidate (raw execution c, period
// t, deadline d, priority index prio) on the surcharged mirror for
// rejection evidence. Unlike AdmitAt it does not stop at the candidate's
// own verdict, and it never warm-starts: every fixed point runs from the
// classic cold-start bound over the spliced view, so each response equals
// a from-scratch analysis of the same inputs (the candidate among the
// interferers of every resident below it), value for value. The probe
// leaves the response cache and the staged adoption state untouched. The
// candidate may miss its own deadline, but it must satisfy c + Surcharge
// ≤ t (the online engine refuses anything else first), so it interferes
// within the bounds of DESIGN.md §13.
func (ps *ProcState) ProbeAt(prio int, c, t, d task.Time) Probe {
	pos := ps.PosFor(prio)
	pcs, pts := ps.splice(pos, c+ps.Surcharge, t)
	prefix := sum(pcs[:pos])
	own := pcs[pos]
	r, v, iters := fixpoint(own, pcs[:pos], pts[:pos], d, prefix+own)
	account(v, iters)
	p := Probe{OwnResponse: r, OwnVerdict: v, Blocked: -1}
	prefix += own
	for k := pos + 1; k < len(pcs); k++ {
		own = pcs[k]
		r, v, iters = fixpoint(own, pcs[:k], pts[:k], ps.b.dls[k-1], prefix+own)
		account(v, iters)
		if v != VerdictFits {
			p.Blocked, p.BlockedResponse, p.BlockedVerdict = k-1, r, v
			break
		}
		prefix += own
	}
	return p
}

// Remove deletes the resident at priority position pos from the mirror —
// the online-admission counterpart of Insert (a departing task under churn,
// see internal/admit). Removal is where warm-start soundness needs care:
//
//   - Residents ABOVE pos (positions < pos) never saw the removed load in
//     their interference set, so their cached fixed points remain the exact
//     converged responses and are kept.
//   - Residents AT OR BELOW pos lose an interferer. Their cached responses
//     were converged against the LARGER demand function, so they are upper
//     bounds on the new fixed points — and the kernels require a LOWER
//     bound to converge to the least fixed point (starting at or above a
//     non-least fixed point would either return it, over-reporting the
//     response, or trip the monotonicity panic). Those entries are
//     therefore dropped to 0 ("unknown"), and the next probe of each
//     resident re-validates it lazily from the classic cold-start bound.
//
// Schedulability itself needs no re-validation: removal only shrinks every
// demand function, so a resident that passed RTA when admitted still
// passes, preserving the processor invariant AdmitAt's affected-range skip
// relies on. The equivalence fuzz tests pin that any insert/remove
// interleaving yields verdicts and response times identical to from-scratch
// analysis of the surviving residents.
func (ps *ProcState) Remove(pos int) {
	if pos < 0 || pos >= ps.b.len() {
		panic("rta: ProcState.Remove position out of range")
	}
	ps.idx = append(ps.idx[:pos], ps.idx[pos+1:]...)
	ps.b.remove(pos)
	ps.b.resp = append(ps.b.resp[:pos], ps.b.resp[pos+1:]...)
	for i := pos; i < len(ps.b.resp); i++ {
		ps.b.resp[i] = 0
	}
	// Staged probe responses include the departed resident's interference
	// (or were positioned relative to it); either way they are stale.
	ps.stagedValid = false
}

// TaskAt returns the priority key (task index) of resident pos.
func (ps *ProcState) TaskAt(pos int) int { return ps.idx[pos] }

// SlackAtMost returns the testing-point slack of resident i against a new
// period-t interferer (see slackBatchCapped): the largest extra execution e
// such that a new highest-priority interferer (e, t) keeps resident i
// schedulable, evaluated on the mirrored surcharged view without
// allocation, for callers that only consume it through
// min(cap, slack) — the MaxSplit scan over lower-priority residents. It
// returns the exact slack whenever that is below cap; once the running
// point maximum reaches cap the enumeration stops and the partial maximum
// (some value ≥ cap) is returned, which the min-fold discards. The slack is
// a max over testing points, so any partial maximum is a lower bound and
// the early exit never misrepresents a slack that matters; a cap of
// math.MaxInt64 gives the exact slack.
func (ps *ProcState) SlackAtMost(i int, t, cap task.Time) task.Time {
	return slackBatchCapped(ps.b.cs[i], ps.b.dls[i], ps.b.cs[:i], ps.b.ts[:i], t, cap, &ps.b.nm)
}

// MaxOwnLoadAt returns the largest execution time a new load inserted at
// priority position pos could have while meeting deadline d (see
// maxOwnLoadBatch), evaluated on the mirror without allocation; 0 when even
// an infinitesimal load would miss d.
func (ps *ProcState) MaxOwnLoadAt(pos int, d task.Time) task.Time {
	return maxOwnLoadBatch(ps.b.cs[:pos], ps.b.ts[:pos], d)
}

// ResponseAt computes the response time of resident pos against limit,
// warm-starting from its cached response, and commits the
// converged value back to the cache. The partitioners use it for the body
// fragment of a fresh split (equation (1)'s R term).
func (ps *ProcState) ResponseAt(pos int, limit task.Time) (task.Time, bool) {
	own := ps.b.cs[pos]
	start := own + sum(ps.b.cs[:pos])
	if ps.b.resp[pos] > start {
		start = ps.b.resp[pos]
		if obs.On() {
			cWarmStarts.Inc()
		}
	}
	r, v, iters := fixpoint(own, ps.b.cs[:pos], ps.b.ts[:pos], limit, start)
	account(v, iters)
	if v != VerdictFits {
		return r, false
	}
	ps.b.resp[pos] = r
	return r, true
}

// DensityProbe supports the sufficient utilization-bound admission
// prefilter (partition/prefilter.go): for the post-insert view with a candidate of raw
// execution c and synthetic deadline d at priority position PosFor(prio), it
// returns the deadline-density hyperbolic product Π (1 + (C_i+Surcharge)/Δ_i)
// (candidate included) and whether the post-insert priority order is
// deadline-monotonic (synthetic deadlines non-decreasing by position). Only
// when dmOK may the caller apply a uniprocessor RM utilization bound to the
// densities: treating each subtask as an implicit-deadline task (C_i, Δ_i),
// DM order makes the priority order the RM order of that surrogate set, and
// Δ_i ≤ T_i makes the surrogate's interference ⌈x/Δ_j⌉·C_j an upper bound on
// the real ⌈x/T_j⌉·C_j — so surrogate schedulability implies every subtask
// here meets its deadline. The hyperbolic form (Bini–Buttazzo, prod ≤ 2)
// admits a strict superset of the Liu–Layland sum test at the same cost: one
// multiply per resident instead of one add.
func (ps *ProcState) DensityProbe(prio int, c, d task.Time) (prod float64, dmOK bool) {
	if d <= 0 {
		return 0, false
	}
	pos := ps.PosFor(prio)
	cand := c + ps.Surcharge
	prod = 1 + float64(cand)/float64(d)
	prev := task.Time(0)
	for i, dl := range ps.b.dls {
		if i == pos {
			if d < prev {
				return 0, false
			}
			prev = d
		}
		if dl < prev {
			return 0, false
		}
		prev = dl
		prod *= 1 + float64(ps.b.cs[i])/float64(dl)
	}
	if pos == ps.b.len() && d < prev {
		return 0, false
	}
	return prod, true
}

// Deadline returns the synthetic deadline of resident pos.
func (ps *ProcState) Deadline(pos int) task.Time { return ps.b.dls[pos] }

// OwnC returns the (surcharged) execution time of resident pos.
func (ps *ProcState) OwnC(pos int) task.Time { return ps.b.cs[pos] }

func insertInt(s []int, pos, v int) []int {
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}

func insertTime(s []task.Time, pos int, v task.Time) []task.Time {
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}

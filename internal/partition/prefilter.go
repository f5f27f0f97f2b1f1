// Sufficient-PUB admission prefilter (DESIGN.md §13). The exact RTA
// admission probe is the partitioners' hot path; most probes on
// lightly-loaded processors succeed, and many of those successes are already
// provable by a closed-form parametric utilization bound — the paper's own
// currency — without running a single fixed point.
//
// The test: for the post-insert processor view, if the priority order is
// deadline-monotonic and the deadline-density hyperbolic product
// Π (1 + C_i/Δ_i) stays below 2 (minus a float-safety epsilon), the
// processor is schedulable. Soundness chain (see rta.ProcState.DensityProbe):
// the surrogate implicit-deadline set (C_i, Δ_i) is RM-schedulable by the
// Bini–Buttazzo hyperbolic bound (which admits a strict superset of the
// Liu–Layland sum test, by AM–GM); Δ_i ≤ T_i makes real interference no
// larger than the surrogate's; DM order equals the surrogate's RM order.
// Hence prefilter-yes ⟹ exact-RTA-yes, so skipping the RTA probe never
// changes an admission verdict — only rta.iterations and the probe cost
// change. FuzzPrefilterSound checks the implication against exact RTA of
// the post-insert list (rta.ProcessorSchedulable).
//
// OverUtilized is the necessary side of the same pairing: a processor
// whose utilization would pass 1 is refused before any test runs. fitsWhole
// chains the two around the exact probe, and it is the one whole-placement
// test of every RTA admission, batch and online.
package partition

import (
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/task"
)

// cPrefilterHits counts admissions decided by the closed-form density test
// alone, with the exact RTA probe skipped entirely.
var cPrefilterHits = obs.NewCounter("partition.prefilter.hits")

// cUtilSkips counts whole placements a batch partitioner refused by
// utilization alone (OverUtilized), with no prefilter, exact probe or
// threshold test run; a splitting partitioner then goes straight to
// MaxSplit.
var cUtilSkips = obs.NewCounter("partition.util_skips")

// prefilterEps keeps the float comparison strictly inside the hyperbolic
// bound, so rounding can never admit a set the exact bound would not.
const prefilterEps = 1e-9

// prefilterAdmit reports whether the density test alone proves the processor
// schedulable after inserting a candidate with raw execution c and synthetic
// deadline d at priority index prio. False means "unknown — run exact RTA",
// never "rejected".
func prefilterAdmit(ps *rta.ProcState, prio int, c, d task.Time) bool {
	prod, dmOK := ps.DensityProbe(prio, c, d)
	if !dmOK || prod > 2-prefilterEps {
		return false
	}
	if obs.On() {
		cPrefilterHits.Inc()
	}
	return true
}

// OverUtilized reports whether a processor of raw utilization uq takes it
// past 1 when u is added. No schedule of any kind exists there: if the
// lowest-priority subtask n meets Δ_n ≤ T_n, then R_n = C_n +
// Σ⌈R_n/T_j⌉C_j ≥ C_n + R_n·U₋ₙ, so U ≤ 1. Exact RTA therefore refuses the
// candidate, and so do the threshold admissions (HB: Π(1+u) ≥ 1+Σu > 2;
// LL: Θ(n) ≤ 1; HT: folding only raises each C/h). The utilEps margin lies
// far above the float error of a sum of a few hundred C/T terms (≈ 1e-14),
// so the predicate only holds when the true utilization exceeds 1. It
// ignores any surcharge, which can only raise the load, so it is sound
// under every surcharge. FuzzBatchUtilRuleSound and FuzzUtilSkipSound
// check it against exact RTA of the post-insert list. The admission
// service's rejection evidence and cmd/explain report this test for the
// processors it refuses.
func OverUtilized(uq, u float64) bool { return uq+u > 1+utilEps }

// wholeTest names the test that decided a whole placement.
type wholeTest uint8

const (
	byUtilization wholeTest = iota // refused by OverUtilized, nothing else run
	byPrefilter                    // admitted by the density prefilter alone
	byRTA                          // decided by the exact test
	byThreshold                    // a batch LL/HB/HT admission; fitsWhole never returns it
)

// fitsWhole is the whole-placement probe of every RTA admission — RM-TS's
// Assign (§IV-A), the strict FF/WF partitioners and the online rta-*
// policies: may load (c, t, d) at priority prio go whole on a processor of
// raw utilization uq whose analysis mirror is ps? The tests run cheapest
// first: the utilization refusal, the surcharged deadline (the load's own
// response is at least c + surcharge, so a smaller d is the exact test's
// "no" without a fixed point), the density prefilter, then ps.AdmitAt. by
// names the test that decided; counters, traces and notes stay with the
// callers.
func fitsWhole(ps *rta.ProcState, uq float64, prio int, c, t, d task.Time) (ok bool, by wholeTest) {
	switch {
	case OverUtilized(uq, float64(c)/float64(t)):
		return false, byUtilization
	case d < c+ps.Surcharge:
		return false, byRTA
	case prefilterAdmit(ps, prio, c, d):
		return true, byPrefilter
	}
	return ps.AdmitAt(prio, c, t, d), byRTA
}

// utilRoomBudget caps a split search's budget (remC + s) at the
// processor's utilization room: by the argument of OverUtilized, no
// portion c with U_q + c/T > 1 can be admitted, so the exact maximum
// portion is at most ⌊(1 + utilEps − U_q)·T⌋ (+ s for the surcharge the
// budget carries) and MaxPortion's min(budget, c*) is unchanged.
func utilRoomBudget(uq float64, remC, t, s task.Time) task.Time {
	if room := (1 + utilEps - uq) * float64(t); room < float64(remC) {
		return task.Time(max(room, 0)) + s
	}
	return remC + s
}

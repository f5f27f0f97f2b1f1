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
// change. FuzzPrefilterSound checks the implication against the scalar RTA.
package partition

import (
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/task"
)

// cPrefilterHits counts admissions decided by the closed-form density test
// alone, with the exact RTA probe skipped entirely.
var cPrefilterHits = obs.NewCounter("partition.prefilter.hits")

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

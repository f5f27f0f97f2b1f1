// Package rta implements exact response-time analysis (RTA) for preemptive
// fixed-priority scheduling on a single processor with constrained
// (synthetic) deadlines — the schedulability test that the paper's
// partitioning algorithms use in their Assign routine (§IV-A) in place of
// the utilization threshold of [16].
//
// For a (sub)task i with higher-priority interference set hp(i) on the same
// processor, the worst-case response time is the least fixed point of
//
//	R = C_i + Σ_{j ∈ hp(i)} ⌈R/T_j⌉ · C_j
//
// and i is schedulable iff R ≤ Δ_i, its synthetic deadline. Because all
// deadlines are constrained (Δ ≤ T) and releases are synchronous in the
// worst case, checking the first job after the critical instant is exact.
//
// A subtle point from the paper (Lemma 5): a split subtask's *ready time*
// is deferred by its predecessors, but the interference it inflicts on
// lower-priority tasks on its processor is still safely modelled by its
// period, because deferral can only reduce the number of preemptions in any
// window starting at a synchronous critical instant of the analysed task.
// The synthetic deadline absorbs the deferral on the analysed task's side.
//
// ProcState (cache.go) is the one entry point to the analysis: the
// partitioners, MaxSplit, the re-checks and the admission service all load
// or grow a processor's residents into one and probe it. This file holds
// the verdicts, the counters and ProcessorSchedulable, the one list-level
// convenience, which runs on a ProcState too.
//
// Every analysis requires its inputs in the model's domain (DESIGN.md
// §13): at most task.MaxTasks + 1 subtasks or loads, values at most
// task.MaxTime (a surcharge included at most twice that), and every
// interferer with C ≤ T. Validated subtasks satisfy C ≤ T; in a surcharged
// view, so does every subtask above a position that met its deadline,
// which is all the analyses that stop at the first miss ever evaluate.
// Out-of-domain inputs are refused at the program's edges, never here.
package rta

import (
	"repro/internal/obs"
	"repro/internal/task"
)

// Instrumentation (see internal/obs): the cost of exact RTA is the quantity
// the paper's average-case argument turns on — RM-TS does more work per
// admission decision than SPA1/SPA2's utilization threshold, and these
// metrics make that work measurable. All hooks are no-ops unless
// obs.SetEnabled(true).
var (
	cCalls       = obs.NewCounter("rta.calls")
	cIters       = obs.NewCounter("rta.iterations")
	cAborts      = obs.NewCounter("rta.limit_exceeded")
	cSlackCalls  = obs.NewCounter("rta.slack.calls")
	cSlackPoints = obs.NewCounter("rta.slack.points")
	cLoadPoints  = obs.NewCounter("rta.maxload.points")
	hItersPer    = obs.NewHistogram("rta.iters_per_call")
)

// IterationsValue returns the running total of response-time fixed-point
// iterations (0 unless metrics are enabled). Decision traces read deltas of
// this between single-goroutine admission checks.
func IterationsValue() int64 { return cIters.Value() }

// AbortsValue returns the running total of iteration-limit aborts (0 unless
// metrics are enabled). Decision traces read deltas of this to mark
// admission decisions whose "no" came from an abort rather than a proven
// deadline miss.
func AbortsValue() int64 { return cAborts.Value() }

// MaxIters caps the number of demand-function evaluations per response-time
// fixed point. Each iterate strictly increases the candidate response by at
// least one tick, so the iteration always terminates on its own; the cap
// exists to bound the worst case on adversarial inputs (huge deadlines over
// tiny periods) and to make the abort path testable. An aborted evaluation
// is reported as VerdictAborted and treated as unschedulable, which is
// sound (the true response may still exceed the limit) but not exact.
//
// Mutate only from single-goroutine setup code (tests); the analysis reads
// it without synchronization.
var MaxIters int64 = 1 << 20

// Verdict classifies the outcome of a response-time evaluation, letting
// callers distinguish a sound "no" (the demand provably exceeds the limit)
// from an iteration-cap abort (unschedulable by fiat, see MaxIters).
type Verdict uint8

const (
	// VerdictFits: the iteration converged to a fixed point R ≤ limit.
	VerdictFits Verdict = iota
	// VerdictExceedsLimit: some iterate exceeded the limit, proving the
	// least fixed point does too — a sound and exact "no".
	VerdictExceedsLimit
	// VerdictAborted: MaxIters demand evaluations elapsed without
	// convergence; treated as unschedulable for soundness.
	VerdictAborted
)

func (v Verdict) String() string {
	switch v {
	case VerdictFits:
		return "fits"
	case VerdictExceedsLimit:
		return "exceeds-limit"
	case VerdictAborted:
		return "aborted"
	default:
		return "verdict(?)"
	}
}

// account records one response-time evaluation in the obs registry.
func account(v Verdict, iters int64) {
	if obs.On() {
		cCalls.Inc()
		cIters.Add(iters)
		hItersPer.Observe(iters)
		if v == VerdictAborted {
			cAborts.Inc()
		}
	}
}

// ProcessorSchedulable reports whether every subtask of list meets its
// synthetic deadline under preemptive fixed-priority scheduling, with list
// position as priority (highest first) whatever the TaskIndex values. It
// loads the list into a fresh ProcState and runs each position's cold fixed
// point, stopping at the first miss.
func ProcessorSchedulable(list []task.Subtask) bool {
	var ps ProcState
	ps.Load(list)
	for i, s := range list {
		if _, ok := ps.ResponseAt(i, s.Deadline); !ok {
			return false
		}
	}
	return true
}

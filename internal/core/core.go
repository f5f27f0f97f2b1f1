// Package core is the high-level entry point of the library: it analyzes a
// task set (utilization profile, harmonic structure, applicable parametric
// bounds), selects and runs the appropriate partitioning algorithm from the
// paper (RM-TS/light for light sets, RM-TS otherwise), independently
// verifies the result with exact response-time analysis, and can hand the
// verified plan to the discrete-event simulator.
//
// The lower-level pieces remain available for direct use:
// internal/partition for the algorithms, internal/bounds for the PUBs,
// internal/rta for the analysis, internal/sim for execution.
package core

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/task"
)

// Analysis summarizes everything the planner derives from a task set's
// parameters before partitioning.
type Analysis struct {
	// N is the task count and M the processor count.
	N, M int
	// TotalU is U(τ); NormalizedU is U_M(τ) = U(τ)/M; MaxU the largest
	// individual utilization.
	TotalU, NormalizedU, MaxU float64
	// Theta is the Liu & Layland bound Θ(N); LightThreshold is Θ/(1+Θ);
	// RMTSCap is 2Θ/(1+Θ).
	Theta, LightThreshold, RMTSCap float64
	// Light reports whether every task is light (Definition 1).
	Light bool
	// Implicit reports whether every deadline equals its period — the
	// paper's model; the utilization-bound guarantees below only apply
	// when true. Constrained-deadline sets are still handled by the
	// RTA-based algorithms (deadline-monotonic order), whose per-instance
	// verification replaces the bound.
	Implicit bool
	// Harmonic reports whether the periods form a single harmonic chain.
	Harmonic bool
	// HarmonicChains is the minimum harmonic chain cover size K.
	HarmonicChains int
	// BestBound names the parametric bound with the largest value for this
	// set and BestBoundValue holds Λ(τ).
	BestBound string
	// BestBoundValue is the raw Λ(τ) of BestBound (uncapped).
	BestBoundValue float64
	// GuaranteeLight is the bound RM-TS/light would guarantee (Λ, valid
	// for light sets); GuaranteeAny is RM-TS's min(Λ, 2Θ/(1+Θ)).
	GuaranteeLight, GuaranteeAny float64
}

// Analyze computes the Analysis of a task set on m processors.
func Analyze(ts task.Set, m int) Analysis {
	sorted := ts.Clone()
	sorted.SortRM()
	n := len(sorted)
	a := Analysis{
		N:              n,
		M:              m,
		TotalU:         sorted.TotalUtilization(),
		MaxU:           sorted.MaxUtilization(),
		Theta:          bounds.LL(n),
		LightThreshold: bounds.LightThresholdFor(n),
		RMTSCap:        bounds.RMTSCapFor(n),
		Harmonic:       sorted.IsHarmonic(),
		HarmonicChains: bounds.HarmonicChainsMin(bounds.Periods(sorted)),
	}
	if m > 0 {
		a.NormalizedU = a.TotalU / float64(m)
	}
	a.Light = sorted.IsLight(a.LightThreshold)
	a.Implicit = sorted.Implicit()
	a.BestBoundValue = bounds.Best().Value(sorted)
	for _, b := range bounds.Portfolio() {
		if b.Value(sorted) == a.BestBoundValue {
			a.BestBound = b.Name()
			break
		}
	}
	a.GuaranteeLight = a.BestBoundValue
	a.GuaranteeAny = a.BestBoundValue
	if a.GuaranteeAny > a.RMTSCap {
		a.GuaranteeAny = a.RMTSCap
	}
	if !a.Implicit {
		// No utilization bound applies to constrained deadlines; only
		// per-instance RTA verification can accept such sets.
		a.GuaranteeLight = 0
		a.GuaranteeAny = 0
	}
	return a
}

// Options configures the planner.
type Options struct {
	// Algorithm forces a specific partitioning algorithm; nil lets the
	// planner choose (see Choose).
	Algorithm partition.Algorithm
	// PUB overrides the bound portfolio used by RM-TS's pre-assignment
	// condition; nil uses bounds.Best.
	PUB bounds.PUB
	// SkipVerify disables the independent RTA re-verification of the
	// produced assignment (it is cheap; only skip it in tight loops that
	// verify by other means).
	SkipVerify bool
	// Trace, when non-nil, records the partitioning decisions of the
	// algorithm the planner selects (only effective when Algorithm is nil;
	// a forced Algorithm carries its own Trace field).
	Trace *obs.Trace
}

// Plan is a verified partitioning of a task set.
type Plan struct {
	// Analysis is the pre-partitioning parameter analysis.
	Analysis Analysis
	// AlgorithmName names the algorithm that produced the plan.
	AlgorithmName string
	// Result is the raw partitioning result, including the assignment.
	Result *partition.Result
	// BoundBacked reports whether the set's normalized utilization is at
	// or below the guarantee bound of the chosen algorithm — i.e. whether
	// acceptance was predictable from the utilization bound alone, before
	// running the partitioner.
	BoundBacked bool
}

// Assignment returns the plan's per-processor assignment.
func (p *Plan) Assignment() *task.Assignment { return p.Result.Assignment }

// Simulate runs the plan under the discrete-event simulator, selecting the
// scheduling policy the plan was built for (FP, or EDF for the EDF
// baselines) unless opt.Policy already says otherwise.
func (p *Plan) Simulate(opt sim.Options) (*sim.Report, error) {
	if opt.Policy == sim.PolicyFP && p.Result.Scheduler == "EDF" {
		opt.Policy = sim.PolicyEDF
	}
	return sim.Simulate(p.Result.Assignment, opt)
}

// Choose is the planner's algorithm choice for ts: RM-TS/light when every
// task is light (Definition 1), otherwise RM-TS with pub for its
// pre-assignment condition (nil means bounds.Best). tr becomes the chosen
// algorithm's decision trace.
func Choose(ts task.Set, pub bounds.PUB, tr *obs.Trace) partition.Algorithm {
	name := "rm-ts"
	if ts.IsLight(bounds.LightThresholdFor(len(ts))) {
		name = "rm-ts-light"
	}
	alg, _ := partition.Lookup(name, pub, tr) // registry names never fail
	return alg
}

// Partition analyzes ts, selects an algorithm, partitions, and verifies.
// A non-nil error means no feasible verified plan was produced; the error
// text carries the algorithm's failure diagnostics.
func Partition(ts task.Set, m int, opt Options) (*Plan, error) {
	analysis := Analyze(ts, m)
	alg := opt.Algorithm
	if alg == nil {
		alg = Choose(ts, opt.PUB, opt.Trace)
	}
	res := alg.Partition(ts, m)
	if !res.OK {
		return nil, fmt.Errorf("core: %s could not place τ%d: %s", alg.Name(), res.FailedTask, res.Reason)
	}
	if !opt.SkipVerify {
		verify := partition.Verify
		if res.Scheduler == "EDF" {
			verify = partition.VerifyEDF
		}
		if err := verify(res); err != nil {
			return nil, fmt.Errorf("core: %s produced an unverifiable plan: %w", alg.Name(), err)
		}
	}
	bound := analysis.GuaranteeAny
	if analysis.Light {
		bound = analysis.GuaranteeLight
	}
	return &Plan{
		Analysis:      analysis,
		AlgorithmName: alg.Name(),
		Result:        res,
		BoundBacked:   analysis.NormalizedU <= bound,
	}, nil
}

// BoundTest is the O(N·logN + N²) utilization-bound-only admission test the
// paper's bounds enable: it returns true when U_M(τ) is at or below the
// guarantee of the planner's algorithm choice — schedulability without
// running any partitioning. This is the "efficient schedulability analysis
// suitable for design space exploration" use case of §I.
func BoundTest(ts task.Set, m int) (ok bool, bound float64, analysis Analysis) {
	analysis = Analyze(ts, m)
	bound = analysis.GuaranteeAny
	if analysis.Light {
		bound = analysis.GuaranteeLight
	}
	return analysis.NormalizedU <= bound, bound, analysis
}

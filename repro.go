// Package repro is a Go reproduction of "Parametric Utilization Bounds for
// Fixed-Priority Multiprocessor Scheduling" (Guan, Stigge, Yi, Yu —
// IPDPS 2012): rate-monotonic partitioned multiprocessor scheduling with
// task splitting, packed by exact response-time analysis, achieving any
// deflatable parametric utilization bound Λ(τ) for light task sets
// (RM-TS/light, Theorem 8) and min(Λ(τ), 2Θ/(1+Θ)) for arbitrary task sets
// (RM-TS, §V).
//
// This package is the public facade: it re-exports the user-facing types
// and entry points of the internal packages. Typical use:
//
//	ts := repro.Set{
//		{Name: "ctrl", C: 2, T: 10},
//		{Name: "video", C: 7, T: 40},
//	}
//	plan, err := repro.Partition(ts, 4, repro.Options{})
//	if err != nil { ... }                   // not schedulable
//	rep, _ := plan.Simulate(repro.SimOptions{})
//	fmt.Println(plan.AlgorithmName, rep.Ok())
//
// The building blocks are available for direct use as well: the
// partitioning algorithms (RMTSLight, NewRMTS, SPA1, SPA2, FirstFitRTA,
// WorstFitRTA), the parametric bounds (LiuLayland, HarmonicChain, TBound,
// RBound), exact response-time analysis (ProcessorSchedulable), the
// discrete-event simulator (Simulate), and the workload generators used by
// the evaluation harness (see cmd/experiments and EXPERIMENTS.md).
package repro

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/global"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/task"
)

// Time is a discrete instant or duration in integer ticks.
type Time = task.Time

// Task is a Liu & Layland task (C = WCET, T = period = deadline).
type Task = task.Task

// Set is an ordered task set; index order is RM priority order after
// SortRM.
type Set = task.Set

// Subtask is a fragment of a split task with its synthetic deadline.
type Subtask = task.Subtask

// Assignment maps subtasks to processors.
type Assignment = task.Assignment

// Result is the outcome of a partitioning algorithm.
type Result = partition.Result

// Algorithm is a partitioning algorithm.
type Algorithm = partition.Algorithm

// Plan is a verified partitioning produced by Partition.
type Plan = core.Plan

// Analysis summarizes a task set's parameters and applicable bounds.
type Analysis = core.Analysis

// Options configures the Partition planner.
type Options = core.Options

// PUB is a parametric utilization bound Λ(·) (§III).
type PUB = bounds.PUB

// SimOptions configures a simulation run.
type SimOptions = sim.Options

// SimReport is the outcome of a simulation run.
type SimReport = sim.Report

// Partition analyzes ts, selects a partitioning algorithm (RM-TS/light for
// light sets, RM-TS otherwise, unless overridden), places every task, and
// verifies the result with exact response-time analysis. A non-nil error
// means the set could not be scheduled.
func Partition(ts Set, m int, opt Options) (*Plan, error) {
	return core.Partition(ts, m, opt)
}

// Analyze computes utilization, harmonic structure and the applicable
// parametric bounds of a task set on m processors, without partitioning.
func Analyze(ts Set, m int) Analysis { return core.Analyze(ts, m) }

// BoundTest is the O(N²) bound-only schedulability test: true when the
// set's normalized utilization is within the guarantee of the planner's
// algorithm choice (§I's fast design-space-exploration use case).
func BoundTest(ts Set, m int) (ok bool, bound float64, analysis Analysis) {
	return core.BoundTest(ts, m)
}

// SensitivityReport holds the critical scaling factors of a schedulable
// configuration (global and per task).
type SensitivityReport = core.SensitivityReport

// Sensitivity computes how much execution-time growth the configuration
// tolerates: the largest uniform scaling factor keeping ts schedulable on
// m processors, and per-task individual factors. alg nil lets the planner
// choose per attempt.
func Sensitivity(ts Set, m int, alg Algorithm) (*SensitivityReport, error) {
	return core.Sensitivity(ts, m, alg)
}

// Simulate executes an assignment on the discrete-event multiprocessor
// simulator and reports deadline misses and response-time observations.
func Simulate(a *Assignment, opt SimOptions) (*SimReport, error) {
	return sim.Simulate(a, opt)
}

// Verify independently re-checks a partitioning result with exact RTA.
func Verify(res *Result) error { return partition.Verify(res) }

// ProcessorSchedulable reports whether a priority-sorted subtask list meets
// all (synthetic) deadlines under preemptive fixed-priority scheduling on
// one processor — the exact test at the heart of RM-TS (§IV-A).
//
// The list must lie in the model's domain (README, "Limits"): at most
// 65,536 subtasks, each passing Subtask.Validate, which bounds C ≤ Δ ≤ T
// by 2^44 ticks. The analysis runs unchecked int64 arithmetic that is exact
// there (DESIGN.md §13); outside it the answer is unspecified.
func ProcessorSchedulable(list []Subtask) bool { return rta.ProcessorSchedulable(list) }

// Partitioning algorithms (see internal/partition for details).
var (
	// RMTSLight is the paper's algorithm for light task sets (§IV).
	RMTSLight Algorithm = partition.RMTSLight{}
	// SPA1 is the light-task utilization-threshold baseline of [16].
	SPA1 Algorithm = partition.SPA1{}
	// SPA2 is the general utilization-threshold baseline of [16].
	SPA2 Algorithm = partition.SPA2{}
	// FirstFitRTA is strict partitioned RM (no splitting), first-fit.
	FirstFitRTA Algorithm = partition.FirstFitRTA{}
	// WorstFitRTA is strict partitioned RM (no splitting), worst-fit.
	WorstFitRTA Algorithm = partition.WorstFitRTA{}
	// EDFFirstFit is strict partitioned EDF (full-bin packing; implicit
	// deadlines only). Simulate its results with PolicyEDF.
	EDFFirstFit Algorithm = partition.EDFFirstFit{}
	// EDFTS is the EDF-with-splitting comparator (window-based, exact
	// demand-test admission; constrained deadlines supported). Simulate
	// its results with PolicyEDF; verify with VerifyEDF.
	EDFTS Algorithm = partition.EDFTS{}
)

// Simulator scheduling policies.
const (
	// PolicyFP is preemptive fixed-priority per processor (the default).
	PolicyFP = sim.PolicyFP
	// PolicyEDF is preemptive EDF per processor, for the EDF baselines.
	PolicyEDF = sim.PolicyEDF
)

// VerifyEDF independently re-checks a partitioned-EDF result against the
// exact processor-demand criterion (window splits included).
func VerifyEDF(res *Result) error { return partition.VerifyEDF(res) }

// NewRMTS returns the paper's general algorithm RM-TS (§V), configured
// with the deflatable parametric bound used by its pre-assignment
// condition; nil selects the Liu & Layland bound.
func NewRMTS(p PUB) Algorithm { return partition.NewRMTS(p) }

// NewRMTSOverheadAware returns RM-TS with overhead-aware admission: every
// fragment term in the packing analysis is surcharged by 3×dispatchCost,
// so the produced partitions tolerate a runtime that charges dispatchCost
// ticks per context switch and per fragment migration (an extension beyond
// the paper's zero-overhead model; see internal/partition/overhead.go).
func NewRMTSOverheadAware(p PUB, dispatchCost Time) Algorithm {
	return &partition.RMTS{PUB: p, Surcharge: 3 * dispatchCost}
}

// NewRMTSLightOverheadAware is the RM-TS/light counterpart of
// NewRMTSOverheadAware.
func NewRMTSLightOverheadAware(dispatchCost Time) Algorithm {
	return partition.RMTSLight{Surcharge: 3 * dispatchCost}
}

// VerifyWithSurcharge re-checks a result with every RTA term surcharged by
// s per fragment — the independent verification matching overhead-aware
// admission. VerifyWithSurcharge(res, 0) equals Verify(res).
func VerifyWithSurcharge(res *Result, s Time) error {
	return partition.VerifyWithSurcharge(res, s)
}

// Parametric utilization bounds (§III).
var (
	// LiuLayland is Θ(N) = N(2^{1/N}−1).
	LiuLayland PUB = bounds.LiuLayland{}
	// HarmonicChainMin is K(2^{1/K}−1) with K the minimum harmonic chain
	// cover (K = 1 recovers the 100% bound for harmonic sets).
	HarmonicChainMin PUB = bounds.HarmonicChain{Minimal: true}
	// TBound is the scaled-period bound of Lauzac et al.
	TBound PUB = bounds.TBound{}
	// RBound is the period-ratio bound of Lauzac et al.
	RBound PUB = bounds.RBound{}
)

// LL returns the Liu & Layland bound Θ(n) for n tasks.
func LL(n int) float64 { return bounds.LL(n) }

// LightThresholdFor returns Θ/(1+Θ), the per-task utilization limit of a
// "light" task (Definition 1). ≈ 40.9% as n grows.
func LightThresholdFor(n int) float64 { return bounds.LightThresholdFor(n) }

// RMTSCapFor returns 2Θ/(1+Θ), the largest bound RM-TS achieves for
// arbitrary task sets (§V). ≈ 81.8% as n grows.
func RMTSCapFor(n int) float64 { return bounds.RMTSCapFor(n) }

// GlobalOptions configures a global-scheduling simulation (the competing
// paradigm of §I: any job may run on any processor).
type GlobalOptions = global.Options

// GlobalReport is the outcome of a global-scheduling simulation.
type GlobalReport = global.Report

// Global scheduling policies.
const (
	// GlobalRM is plain global rate-monotonic priority — subject to the
	// Dhall effect.
	GlobalRM = global.RM
	// GlobalRMUS is RM-US[m/(3m−2)] of Andersson, Baruah & Jonsson.
	GlobalRMUS = global.RMUS
)

// SimulateGlobal executes the task set under global preemptive
// fixed-priority scheduling on m processors.
func SimulateGlobal(ts Set, m int, opt GlobalOptions) (*GlobalReport, error) {
	return global.Simulate(ts, m, opt)
}

// GlobalUSBound returns the RM-US normalized utilization bound m/(3m−2) —
// the best-of-class global fixed-priority guarantee the paper's
// partitioned bounds (81.8–100%) are contrasted with.
func GlobalUSBound(m int) float64 { return global.USBound(m) }

// DhallExample constructs the classic Dhall-effect witness: m light tasks
// plus one C=T task, unschedulable under global RM at arbitrarily low
// normalized utilization yet trivial for any partitioned algorithm here.
func DhallExample(m int, periodLight Time) Set { return global.DhallExample(m, periodLight) }

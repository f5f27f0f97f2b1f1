// Package explain turns one partitioning run into a typed, self-contained
// provenance record: the terminal verdict plus the causal evidence behind it
// — which admission test fired and the parameter values it saw (Λ(τ), Θ,
// U_M at rejection), the failing fragment's response time against its
// synthetic deadline on every processor, per-processor residency and slack
// at the moment of failure, and the split chains of divided tasks.
//
// The Explanation is derived from three sources: the partition.Result (the
// verdict, cause tag and assignment), the obs.Trace decision events (the
// final fragment's exact shape when the failure happened mid-split), and
// fresh analysis probes (rta.ProcState.ProbeAt, split.MaxPortionState,
// the bounds package) that recompute the rejected admission on each
// processor so the report can show not just *that* the test said no but
// *what it measured*. Everything is recomputed from the inputs — nothing
// here runs inside the partitioning hot path, so explain costs zero when
// not asked for (the AllocGuard and perfdiff gates pin this).
package explain

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/split"
	"repro/internal/task"
)

// Schema versions the Explanation JSON shape.
const Schema = 1

// Explanation is the provenance record of one partitioning run.
type Explanation struct {
	Schema    int    `json:"schema"`
	Algorithm string `json:"algorithm"`
	// Scheduler is the per-processor runtime policy: "FP" or "EDF".
	Scheduler string `json:"scheduler"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	// Verdict is "accepted" (OK && Guaranteed), "accepted-unguaranteed"
	// (packed but outside the algorithm's bound theorem) or "rejected".
	Verdict    string `json:"verdict"`
	OK         bool   `json:"ok"`
	Guaranteed bool   `json:"guaranteed"`
	// Cause is the rejection-cause tag (partition.Cause.String); "none" on
	// full acceptance.
	Cause string `json:"cause"`
	// CauseDetail is the one-line human reading of Cause.
	CauseDetail string `json:"causeDetail,omitempty"`
	// Reason is the algorithm's own failure message; empty on success.
	Reason string `json:"reason,omitempty"`
	// Bound carries the parametric-bound context of the decision.
	Bound BoundInfo `json:"bound"`
	// FailedTask describes the first task that could not be placed; nil on
	// success or pre-packing failures without a specific task.
	FailedTask *TaskRef `json:"failedTask,omitempty"`
	// Fragment is the final unplaced fragment of the failed task (equal to
	// the whole task when the failure happened before any split).
	Fragment *FragmentInfo `json:"fragment,omitempty"`
	// Processors holds per-processor residency and, on rejection, the
	// recomputed admission evidence for the final fragment.
	Processors []ProcInfo `json:"processors,omitempty"`
	// SplitChains lists the fragment chains of every split task.
	SplitChains    []SplitChain `json:"splitChains,omitempty"`
	NumSplit       int          `json:"numSplit"`
	NumPreAssigned int          `json:"numPreAssigned"`
	// Events is the full decision trace of the run.
	Events []obs.Event `json:"events,omitempty"`
}

// BoundInfo is the parametric-bound context: what the thresholds were and
// where the set's utilization stood relative to them.
type BoundInfo struct {
	TotalU      float64 `json:"totalU"`
	NormalizedU float64 `json:"normalizedU"`
	MaxU        float64 `json:"maxU"`
	Theta       float64 `json:"theta"`
	LightThr    float64 `json:"lightThreshold"`
	RMTSCap     float64 `json:"rmtsCap"`
	Light       bool    `json:"light"`
	Implicit    bool    `json:"implicit"`
	Harmonic    bool    `json:"harmonic"`
	BestBound   string  `json:"bestBound"`
	BestValue   float64 `json:"bestBoundValue"`
	// Lambda is the effective RM-TS bound min(Λ(τ), 2Θ/(1+Θ)) of the
	// configured PUB; only set for RM-TS.
	Lambda float64 `json:"lambda,omitempty"`
}

// TaskRef identifies a task of the RM-sorted working set with its
// parameters.
type TaskRef struct {
	Index int     `json:"index"`
	Name  string  `json:"name,omitempty"`
	C     int64   `json:"c"`
	T     int64   `json:"t"`
	D     int64   `json:"d"`
	U     float64 `json:"u"`
}

// FragmentInfo is the final unplaced fragment at the moment of failure:
// remaining execution RemC with synthetic deadline Deadline (T minus the
// predecessors' accumulated response, equation (1)).
type FragmentInfo struct {
	Part     int   `json:"part"`
	RemC     int64 `json:"remC"`
	T        int64 `json:"t"`
	Deadline int64 `json:"deadline"`
	// FromTrace reports whether the fragment shape was recovered from the
	// decision trace (exact) or reconstructed as the whole task (the failure
	// happened before any split).
	FromTrace bool `json:"fromTrace"`
}

// Resident is one subtask hosted by a processor.
type Resident struct {
	Task     int   `json:"task"`
	Part     int   `json:"part"`
	C        int64 `json:"c"`
	T        int64 `json:"t"`
	Deadline int64 `json:"deadline"`
}

// ProcInfo is one processor's state at the end of the run plus, on
// rejection, the recomputed admission evidence for the final fragment.
type ProcInfo struct {
	Proc        int        `json:"proc"`
	Utilization float64    `json:"u"`
	PreAssigned int        `json:"preAssigned"` // task index or -1
	Residents   []Resident `json:"residents,omitempty"`
	// Evidence is the "what if the fragment were forced here" probe; only
	// present on rejected runs.
	Evidence *ProcEvidence `json:"evidence,omitempty"`
}

// ProcEvidence shows why the final fragment did not fit on one processor,
// in the terms of the algorithm's own admission test.
type ProcEvidence struct {
	// OwnResponse / OwnVerdict: the fragment's RTA fixed point against its
	// synthetic deadline with the processor's higher-priority residents
	// interfering (RTA-admission algorithms only).
	OwnResponse int64  `json:"ownResponse,omitempty"`
	OwnVerdict  string `json:"ownVerdict,omitempty"`
	// Blocked is the highest-priority resident whose own deadline breaks
	// when the fragment is forced on (its fixed point with the fragment
	// among its interferers); nil when no resident breaks.
	Blocked *BlockedResident `json:"blocked,omitempty"`
	// MaxPortion is the largest admissible prefix MaxSplit would take
	// (splitting algorithms only; 0 means the processor is full for this
	// fragment).
	MaxPortion int64 `json:"maxPortion,omitempty"`
	// HasMaxPortion distinguishes a genuine 0 portion from "not probed".
	HasMaxPortion bool `json:"hasMaxPortion,omitempty"`
	// ThresholdRoom is Θ − U(P_q), the utilization room under the
	// threshold admission (SPA/bound-based algorithms only).
	ThresholdRoom float64 `json:"thresholdRoom,omitempty"`
	HasThreshold  bool    `json:"hasThreshold,omitempty"`
	// UtilizationRoom is 1 − U(P_q): the EDF algorithms' admission room,
	// and the necessary utilization test's — the online service reports it
	// instead of an RTA probe for a processor the candidate would push past
	// U = 1, where no schedule exists.
	UtilizationRoom float64 `json:"utilizationRoom,omitempty"`
	HasUtilization  bool    `json:"hasUtilization,omitempty"`
}

// BlockedResident is a resident subtask whose response time exceeds its
// synthetic deadline once the fragment interferes.
type BlockedResident struct {
	Task     int    `json:"task"`
	Part     int    `json:"part"`
	C        int64  `json:"c"`
	Deadline int64  `json:"deadline"`
	Response int64  `json:"response"`
	Verdict  string `json:"verdict"`
}

// SplitChain is the fragment chain of one split task across processors.
type SplitChain struct {
	Task  int         `json:"task"`
	Parts []SplitPart `json:"parts"`
}

// SplitPart is one fragment of a split task.
type SplitPart struct {
	Part     int   `json:"part"`
	Proc     int   `json:"proc"`
	C        int64 `json:"c"`
	Deadline int64 `json:"deadline"`
	Offset   int64 `json:"offset"`
}

// Run executes alg on (ts, m) with a decision trace attached (when the
// algorithm supports one) and assembles the Explanation. The input
// algorithm value is not modified.
func Run(alg partition.Algorithm, ts task.Set, m int) *Explanation {
	tr := obs.NewTrace()
	alg = withTrace(alg, tr)
	res := alg.Partition(ts, m)
	return FromResult(alg, res, tr, ts, m)
}

// withTrace returns a copy of alg with the decision trace attached, or alg
// unchanged when it has no trace support.
func withTrace(alg partition.Algorithm, tr *obs.Trace) partition.Algorithm {
	switch a := alg.(type) {
	case partition.RMTSLight:
		a.Trace = tr
		return a
	case *partition.RMTS:
		c := *a
		c.Trace = tr
		return &c
	case partition.SPA1:
		a.Trace = tr
		return a
	case partition.SPA2:
		a.Trace = tr
		return a
	case partition.FirstFitRTA:
		a.Trace = tr
		return a
	case partition.WorstFitRTA:
		a.Trace = tr
		return a
	case partition.FirstFit:
		a.Trace = tr
		return a
	case partition.EDFTS:
		a.Trace = tr
		return a
	default:
		return alg
	}
}

// FromResult assembles the Explanation of an already-completed run. tr may
// be nil (the fragment shape then falls back to the whole failed task).
func FromResult(alg partition.Algorithm, res *partition.Result, tr *obs.Trace, ts task.Set, m int) *Explanation {
	a := core.Analyze(ts, m)
	e := &Explanation{
		Schema:    Schema,
		Algorithm: alg.Name(),
		Scheduler: "FP",
		N:         a.N,
		M:         a.M,
		Bound: BoundInfo{
			TotalU:      a.TotalU,
			NormalizedU: a.NormalizedU,
			MaxU:        a.MaxU,
			Theta:       a.Theta,
			LightThr:    a.LightThreshold,
			RMTSCap:     a.RMTSCap,
			Light:       a.Light,
			Implicit:    a.Implicit,
			Harmonic:    a.Harmonic,
			BestBound:   a.BestBound,
			BestValue:   a.BestBoundValue,
		},
		Events: tr.Events(),
	}
	if r, ok := alg.(*partition.RMTS); ok {
		e.Bound.Lambda = r.Lambda(ts)
	}
	if res == nil {
		e.Verdict = "rejected"
		e.Cause = partition.CauseInvalidInput.String()
		e.CauseDetail = partition.CauseInvalidInput.Describe()
		return e
	}
	if res.Scheduler == "EDF" {
		e.Scheduler = "EDF"
	}
	e.OK = res.OK
	e.Guaranteed = res.Guaranteed
	e.Reason = res.Reason
	e.NumSplit = res.NumSplit
	e.NumPreAssigned = res.NumPreAssigned
	cause := res.RejectionCause()
	e.Cause = cause.String()
	e.CauseDetail = cause.Describe()
	switch {
	case res.OK && res.Guaranteed:
		e.Verdict = "accepted"
	case res.OK:
		e.Verdict = "accepted-unguaranteed"
	default:
		e.Verdict = "rejected"
	}

	asg := res.Assignment
	if asg == nil {
		return e
	}
	sorted := asg.Set

	if res.FailedTask >= 0 && res.FailedTask < len(sorted) {
		t := sorted[res.FailedTask]
		e.FailedTask = &TaskRef{
			Index: res.FailedTask, Name: t.Name,
			C: t.C, T: t.T, D: t.Deadline(), U: t.Utilization(),
		}
		e.Fragment = finalFragment(tr, res.FailedTask, t)
	}

	e.Processors = make([]ProcInfo, len(asg.Procs))
	for q := range asg.Procs {
		pi := ProcInfo{Proc: q, Utilization: asg.Utilization(q), PreAssigned: -1}
		if q < len(asg.PreAssigned) {
			pi.PreAssigned = asg.PreAssigned[q]
		}
		for _, s := range asg.Procs[q] {
			pi.Residents = append(pi.Residents, Resident{
				Task: s.TaskIndex, Part: s.Part, C: s.C, T: s.T, Deadline: s.Deadline,
			})
		}
		if !res.OK && e.Fragment != nil && e.FailedTask != nil {
			pi.Evidence = probe(alg, asg.Procs[q], pi.Utilization, e.FailedTask.Index, e.Fragment, res.Scheduler, len(sorted))
		}
		e.Processors[q] = pi
	}

	var frags task.FragmentIndex
	frags.Build(asg)
	for _, idx := range asg.SplitTasks() {
		chain := SplitChain{Task: idx}
		for _, f := range frags.Of(idx) {
			s := f.Sub
			chain.Parts = append(chain.Parts, SplitPart{
				Part: s.Part, Proc: f.Proc, C: s.C, Deadline: s.Deadline, Offset: s.Offset,
			})
		}
		e.SplitChains = append(e.SplitChains, chain)
	}
	return e
}

// finalFragment recovers the shape of the failed task's last offered
// fragment from the decision trace (the last assign-attempt for that task),
// falling back to the whole task when the trace has no such record.
func finalFragment(tr *obs.Trace, failed int, t task.Task) *FragmentInfo {
	if tr != nil {
		events := tr.Events()
		for i := len(events) - 1; i >= 0; i-- {
			ev := events[i]
			if ev.Kind == obs.EvAssignAttempt && ev.Task == failed {
				return &FragmentInfo{
					Part: ev.Part, RemC: ev.C, T: ev.T, Deadline: ev.Deadline,
					FromTrace: true,
				}
			}
		}
	}
	return &FragmentInfo{Part: 1, RemC: t.C, T: t.T, Deadline: t.Deadline()}
}

// probe recomputes the rejected admission of the final fragment on one
// processor, in the vocabulary of the algorithm's own test: RTA fixed
// points and MaxSplit prefixes for the exact-test algorithms, utilization
// room for the threshold and EDF tests and for the processors a strict
// RTA partitioner refused by utilization without running RTA.
func probe(alg partition.Algorithm, list []task.Subtask, u float64, prio int, frag *FragmentInfo, scheduler string, n int) *ProcEvidence {
	if scheduler == "EDF" {
		return ProbeUtilization(u)
	}
	splitting := false
	rtaBased := false
	threshold := false
	switch a := alg.(type) {
	case partition.RMTSLight, *partition.RMTS:
		splitting, rtaBased = true, true
	case partition.FirstFitRTA, partition.WorstFitRTA:
		rtaBased = true
	case partition.FirstFit:
		if a.Admission == partition.AdmitRTA {
			rtaBased = true
		} else {
			threshold = true
		}
	case partition.SPA1, partition.SPA2:
		threshold = true
	}
	if threshold {
		return ProbeThreshold(u, bounds.LL(n))
	}
	if !rtaBased {
		return &ProcEvidence{}
	}
	if !splitting && partition.OverUtilized(u, float64(frag.RemC)/float64(frag.T)) {
		// Refused by utilization alone, as in admitd's evidence; a
		// splitting algorithm still runs MaxSplit here.
		return ProbeUtilization(u)
	}
	return ProbeRTA(list, prio, frag.RemC, frag.T, frag.Deadline, splitting)
}

// ProbeThreshold builds the evidence of a utilization-threshold admission:
// the room theta − u left on a processor with utilization u. Negative room
// is exactly why the threshold said no.
func ProbeThreshold(u, theta float64) *ProcEvidence {
	return &ProcEvidence{ThresholdRoom: theta - u, HasThreshold: true}
}

// ProbeUtilization builds the evidence of the necessary utilization test:
// the room 1 − u left on a processor with utilization u. A candidate whose
// own utilization exceeds the room cannot be scheduled there by any policy.
func ProbeUtilization(u float64) *ProcEvidence {
	return &ProcEvidence{UtilizationRoom: 1 - u, HasUtilization: true}
}

// ProbeRTA recomputes the exact-RTA admission of a load (c, t, d) with
// priority key prio on one processor's priority-sorted resident list: the
// load's own fixed point against d, the highest-priority resident whose
// deadline breaks once the load interferes, and — when withMaxPortion is
// set (splitting algorithms) — the largest admissible MaxSplit prefix. The
// list must carry any analysis surcharge already (the batch explain path
// passes assignment lists, which are raw because their surcharge is zero),
// and c ≤ t. It loads the list into a from-scratch rta.ProcState and takes
// the path the admission service's evidence takes on its engine's mirror
// (rta.ProcState.ProbeAt), plus split.MaxPortionState.
func ProbeRTA(list []task.Subtask, prio int, c, t, d task.Time, withMaxPortion bool) *ProcEvidence {
	var ps rta.ProcState
	ps.Load(list)
	p := ps.ProbeAt(prio, c, t, d)
	ev := &ProcEvidence{OwnResponse: p.OwnResponse, OwnVerdict: p.OwnVerdict.String()}
	if p.Blocked >= 0 {
		b := list[p.Blocked]
		ev.Blocked = &BlockedResident{
			Task: b.TaskIndex, Part: b.Part,
			C: b.C, Deadline: b.Deadline,
			Response: p.BlockedResponse, Verdict: p.BlockedVerdict.String(),
		}
	}
	if withMaxPortion {
		ev.MaxPortion = split.MaxPortionState(&ps, prio, t, c, d)
		ev.HasMaxPortion = true
	}
	return ev
}

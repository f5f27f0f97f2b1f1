package explain

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/task"
)

var overloaded = task.Set{
	{Name: "a", C: 3, T: 5},
	{Name: "b", C: 3, T: 5},
	{Name: "c", C: 3, T: 5},
	{Name: "d", C: 3, T: 5},
}

func TestRunRejectedRMTSLight(t *testing.T) {
	e := Run(partition.RMTSLight{}, overloaded, 2)
	if e.Verdict != "rejected" {
		t.Fatalf("verdict = %q, want rejected", e.Verdict)
	}
	if e.Cause != partition.CauseMaxSplitExhausted.String() {
		t.Errorf("cause = %q, want %s", e.Cause, partition.CauseMaxSplitExhausted)
	}
	if e.FailedTask == nil || e.Fragment == nil {
		t.Fatal("rejected explanation lacks failed task or fragment")
	}
	if len(e.Processors) != 2 {
		t.Fatalf("processors = %d, want 2", len(e.Processors))
	}
	for _, p := range e.Processors {
		if p.Evidence == nil {
			t.Fatalf("P%d has no evidence", p.Proc)
		}
		if !p.Evidence.HasMaxPortion {
			t.Errorf("P%d evidence lacks the MaxSplit probe", p.Proc)
		}
		if p.Evidence.MaxPortion >= e.Fragment.RemC {
			t.Errorf("P%d MaxPortion %d admits the whole fragment C=%d yet the run failed",
				p.Proc, p.Evidence.MaxPortion, e.Fragment.RemC)
		}
		if p.Evidence.OwnVerdict == "fits" && p.Evidence.Blocked == nil {
			t.Errorf("P%d: fragment fits and nothing blocks — evidence contradicts the rejection", p.Proc)
		}
	}
	// The failure happened mid-split on the last processor, so the final
	// fragment must come from the trace with a shrunken deadline.
	if !e.Fragment.FromTrace {
		t.Error("fragment not recovered from the decision trace")
	}
	if len(e.Events) == 0 {
		t.Error("no decision events recorded")
	}
}

func TestRunAcceptedWithSplits(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 3, T: 5},
		{Name: "b", C: 3, T: 5},
		{Name: "c", C: 3, T: 5},
	}
	e := Run(partition.RMTSLight{}, ts, 2)
	if e.Verdict != "accepted" || e.Cause != "none" {
		t.Fatalf("verdict=%q cause=%q, want accepted/none", e.Verdict, e.Cause)
	}
	if e.NumSplit != 1 || len(e.SplitChains) != 1 {
		t.Fatalf("NumSplit=%d chains=%d, want 1/1", e.NumSplit, len(e.SplitChains))
	}
	if len(e.SplitChains[0].Parts) < 2 {
		t.Fatal("split chain has fewer than 2 parts")
	}
	if e.FailedTask != nil || e.Fragment != nil {
		t.Error("accepted explanation carries failure evidence")
	}
}

func TestRunSPAThresholdEvidence(t *testing.T) {
	e := Run(partition.SPA2{}, overloaded, 2)
	if e.Verdict != "rejected" {
		t.Fatalf("verdict = %q, want rejected", e.Verdict)
	}
	for _, p := range e.Processors {
		if p.Evidence == nil || !p.Evidence.HasThreshold {
			t.Fatalf("P%d lacks threshold evidence", p.Proc)
		}
		need := float64(e.Fragment.RemC) / float64(e.Fragment.T)
		if p.Evidence.ThresholdRoom >= need {
			t.Errorf("P%d has room %.4f ≥ needed %.4f yet SPA2 rejected",
				p.Proc, p.Evidence.ThresholdRoom, need)
		}
	}
}

// TestRunStrictUtilizationEvidence: the strict RTA partitioners refuse a
// processor the failed task would push past U = 1 without running RTA, so
// the evidence there is the utilization room — the admission service's
// form — and an RTA probe only where the exact test ran. y (0.8) lands on
// P0, x (0.6) on P1; z (0.25) overfills P0 and breaks x on P1.
func TestRunStrictUtilizationEvidence(t *testing.T) {
	ts := task.Set{
		{Name: "x", C: 6, T: 10},
		{Name: "y", C: 8, T: 10},
		{Name: "z", C: 5, T: 20, D: 8},
	}
	for _, alg := range []partition.Algorithm{
		partition.FirstFitRTA{}, partition.WorstFitRTA{}, partition.FirstFit{Admission: partition.AdmitRTA},
	} {
		e := Run(alg, ts, 2)
		if e.Verdict != "rejected" || e.FailedTask == nil || e.FailedTask.Name != "z" {
			t.Fatalf("%s: verdict %q, failed %+v; want z rejected", alg.Name(), e.Verdict, e.FailedTask)
		}
		p0, p1 := e.Processors[0].Evidence, e.Processors[1].Evidence
		if !p0.HasUtilization || p0.OwnVerdict != "" || p0.UtilizationRoom > 0.2+1e-9 || p0.UtilizationRoom < 0.2-1e-9 {
			t.Errorf("%s: P0 evidence %+v, want utilization room 0.2 and no RTA probe", alg.Name(), p0)
		}
		if p1.HasUtilization || p1.OwnVerdict != "fits" || p1.Blocked == nil || p1.Blocked.Response != 11 {
			t.Errorf("%s: P1 evidence %+v, want an RTA probe with x blocked at R=11", alg.Name(), p1)
		}
	}
}

func TestRunGuaranteeViolated(t *testing.T) {
	heavy := task.Set{{C: 9, T: 10}, {C: 1, T: 100}}
	e := Run(partition.SPA1{}, heavy, 2)
	if e.Verdict != "accepted-unguaranteed" {
		t.Fatalf("verdict = %q, want accepted-unguaranteed", e.Verdict)
	}
	if e.Cause != partition.CauseGuaranteeViolated.String() {
		t.Errorf("cause = %q, want guarantee-violated", e.Cause)
	}
}

func TestRunRMTSLambda(t *testing.T) {
	e := Run(&partition.RMTS{}, overloaded, 2)
	if e.Bound.Lambda <= 0 {
		t.Fatalf("RM-TS explanation lacks the effective Λ bound: %v", e.Bound.Lambda)
	}
	if e.Bound.Lambda > e.Bound.RMTSCap+1e-12 {
		t.Errorf("Λ=%.4f exceeds the RM-TS cap %.4f", e.Bound.Lambda, e.Bound.RMTSCap)
	}
}

func TestRunEDFEvidence(t *testing.T) {
	e := Run(partition.EDFFirstFit{}, overloaded, 2)
	if e.Scheduler != "EDF" {
		t.Fatalf("scheduler = %q, want EDF", e.Scheduler)
	}
	for _, p := range e.Processors {
		if p.Evidence == nil || !p.Evidence.HasUtilization {
			t.Fatalf("P%d lacks EDF utilization evidence", p.Proc)
		}
	}
}

func TestRunInvalidInput(t *testing.T) {
	e := Run(partition.RMTSLight{}, overloaded, 0)
	if e.Verdict != "rejected" || e.Cause != partition.CauseInvalidInput.String() {
		t.Fatalf("verdict=%q cause=%q, want rejected/invalid-input", e.Verdict, e.Cause)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	e1 := Run(partition.RMTSLight{}, overloaded, 2)
	e2 := Run(partition.RMTSLight{}, overloaded, 2)
	var b1, b2 bytes.Buffer
	e1.WriteText(&b1)
	e2.WriteText(&b2)
	if b1.String() != b2.String() {
		t.Fatal("text reports differ across identical runs")
	}
	out := b1.String()
	for _, want := range []string{"REJECTED", "maxsplit-exhausted", "per-processor evidence", "MaxSplit admissible prefix"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	e := Run(partition.RMTSLight{}, overloaded, 2)
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Explanation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.Cause != e.Cause || back.Verdict != e.Verdict {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

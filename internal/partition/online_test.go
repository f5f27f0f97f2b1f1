package partition

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/rta"
	"repro/internal/task"
)

// Online-engine equivalence tests: every admission decision under churn must
// match from-scratch analysis of the surviving residents, and the final
// per-processor response times must be byte-identical to cold RTA on the
// final lists — the service-level face of ProcState.Remove's soundness
// contract (see internal/rta/remove_test.go for the mirror-level version).

func onlineSurView(list []task.Subtask, s task.Time) []task.Subtask {
	out := make([]task.Subtask, len(list))
	for i, sub := range list {
		sub.C += s
		out[i] = sub
	}
	return out
}

// onlineModel shadows an Online cluster with explicit per-processor lists
// and recomputes every decision from scratch — it shares no state with the
// engine beyond the handles Admit returned.
type modelResident struct {
	h   uint64
	sub task.Subtask
}

type onlineModel struct {
	procs  [][]modelResident
	s      task.Time
	policy string
}

func (m *onlineModel) list(q int) []task.Subtask {
	out := make([]task.Subtask, len(m.procs[q]))
	for i, r := range m.procs[q] {
		out[i] = r.sub
	}
	return out
}

func (m *onlineModel) util(q int) float64 {
	u := 0.0
	for _, r := range m.procs[q] {
		u += r.sub.Utilization()
	}
	return u
}

func (m *onlineModel) surUtil(q int) float64 {
	u := 0.0
	for _, r := range m.procs[q] {
		u += float64(r.sub.C+m.s) / float64(r.sub.T)
	}
	return u
}

// admit mirrors Online.Admit's decision from scratch: same candidate order,
// same admission test, no incremental state. Returns the chosen processor
// or -1.
func (m *onlineModel) admit(t task.Task) int {
	if t.Validate() != nil || t.C+m.s > t.T {
		return -1
	}
	d := t.Deadline()
	prio := int(d)
	order := make([]int, len(m.procs))
	for q := range order {
		order[q] = q
	}
	if m.policy == OnlineRTAWorstFit {
		for i := 1; i < len(order); i++ {
			q := order[i]
			u := m.util(q)
			j := i - 1
			for j >= 0 && m.util(order[j]) > u {
				order[j+1] = order[j]
				j--
			}
			order[j+1] = q
		}
	}
	for _, q := range order {
		if m.policy == OnlineThreshold {
			u := float64(t.C+m.s) / float64(t.T)
			if t.Implicit() && m.surUtil(q)+u <= bounds.LL(len(m.procs[q])+1)-utilEps {
				return q
			}
			continue
		}
		if d >= t.C+m.s && fitsAt(onlineSurView(m.list(q), m.s), prio, t.C+m.s, t.T, d) {
			return q
		}
	}
	return -1
}

func (m *onlineModel) place(q int, h uint64, t task.Task) {
	d := t.Deadline()
	sub := task.Subtask{TaskIndex: int(d), Part: 1, C: t.C, T: t.T, Deadline: d, Offset: t.T - d, Tail: true}
	list := m.procs[q]
	pos := 0
	for pos < len(list) && list[pos].sub.TaskIndex <= sub.TaskIndex {
		pos++
	}
	list = append(list, modelResident{})
	copy(list[pos+1:], list[pos:])
	list[pos] = modelResident{h: h, sub: sub}
	m.procs[q] = list
}

func (m *onlineModel) remove(h uint64) bool {
	for q := range m.procs {
		for pos, r := range m.procs[q] {
			if r.h == h {
				m.procs[q] = append(m.procs[q][:pos], m.procs[q][pos+1:]...)
				return true
			}
		}
	}
	return false
}

// checkOnlineColdEquivalence compares every processor's resident list and
// response times against from-scratch RTA of the surcharged view.
func checkOnlineColdEquivalence(t *testing.T, o *Online, m *onlineModel, ctx string) {
	t.Helper()
	for q := range m.procs {
		got := residents(o, q)
		want := m.list(q)
		if len(got) != len(want) {
			t.Fatalf("%s: proc %d has %d residents, model %d", ctx, q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: proc %d resident %d = %+v, model %+v", ctx, q, i, got[i], want[i])
			}
		}
		if !rta.ProcessorSchedulable(onlineSurView(want, m.s)) {
			t.Fatalf("%s: proc %d unschedulable in cold re-analysis — invariant broken", ctx, q)
		}
	}
}

// randomOnlineTask draws a task; constrained deadlines only when allowed.
func randomOnlineTask(r *rand.Rand, implicitOnly bool) task.Task {
	T := task.Time(20 + r.Intn(2000))
	c := task.Time(1 + r.Intn(int(T)/3+1))
	t := task.Task{C: c, T: T}
	if !implicitOnly && r.Intn(2) == 0 {
		d := T - task.Time(r.Intn(int(T)/3+1))
		if d < c {
			d = c
		}
		t.D = d
	}
	return t
}

// onlinePolicies lists the three Online placement policies.
var onlinePolicies = []string{OnlineRTAFirstFit, OnlineRTAWorstFit, OnlineThreshold}

// TestOnlineMatchesFromScratch drives random admit/remove churn through all
// three policies and checks every decision and the surviving residents'
// responses against the from-scratch model.
func TestOnlineMatchesFromScratch(t *testing.T) {
	for _, policy := range onlinePolicies {
		t.Run(policy, func(t *testing.T) {
			r := rand.New(rand.NewSource(31))
			for trial := 0; trial < 60; trial++ {
				s := task.Time(r.Intn(3))
				mProcs := 1 + r.Intn(3)
				o, err := NewOnline(mProcs, policy, s)
				if err != nil {
					t.Fatal(err)
				}
				model := &onlineModel{
					procs:  make([][]modelResident, mProcs),
					s:      s,
					policy: policy,
				}
				var live []uint64
				for op := 0; op < 40; op++ {
					ctx := fmt.Sprintf("trial %d op %d", trial, op)
					if len(live) > 0 && r.Intn(3) == 0 {
						i := r.Intn(len(live))
						h := live[i]
						if !o.Remove(h) {
							t.Fatalf("%s: Remove(%d) failed for a live handle", ctx, h)
						}
						if !model.remove(h) {
							t.Fatalf("%s: handle %d missing from model", ctx, h)
						}
						live = append(live[:i], live[i+1:]...)
					} else {
						tk := randomOnlineTask(r, policy == OnlineThreshold)
						wantQ := model.admit(tk)
						pl, err := o.Admit(tk)
						if wantQ == -1 {
							var rej *Rejection
							if err == nil || !errors.As(err, &rej) {
								t.Fatalf("%s: Admit(%s) accepted on proc %d, from-scratch rejects", ctx, tk, pl.Proc)
							}
						} else {
							if err != nil {
								t.Fatalf("%s: Admit(%s) rejected (%v), from-scratch places on %d", ctx, tk, err, wantQ)
							}
							if pl.Proc != wantQ {
								t.Fatalf("%s: Admit(%s) chose proc %d, from-scratch %d", ctx, tk, pl.Proc, wantQ)
							}
							if pl.Handle == 0 {
								t.Fatalf("%s: zero handle", ctx)
							}
							model.place(wantQ, pl.Handle, tk)
							live = append(live, pl.Handle)
						}
					}
					checkOnlineColdEquivalence(t, o, model, ctx)
				}
				if o.Len() != len(live) {
					t.Fatalf("trial %d: Len=%d, live=%d", trial, o.Len(), len(live))
				}
			}
		})
	}
}

// TestOnlineAdmitRemoveReadmit pins the churn cycle the admission service is
// built around: fill a cluster to rejection, release a resident, and the
// same task must then be admitted with responses identical to cold analysis.
func TestOnlineAdmitRemoveReadmit(t *testing.T) {
	o, err := NewOnline(1, OnlineRTAFirstFit, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two tasks that fill the processor: U = 0.5 + 0.5.
	a, err := o.Admit(task.Task{C: 5, T: 10})
	if err != nil {
		t.Fatalf("admit a: %v", err)
	}
	if _, err := o.Admit(task.Task{C: 10, T: 20}); err != nil {
		t.Fatalf("admit b: %v", err)
	}
	// A third cannot fit.
	_, err = o.Admit(task.Task{C: 7, T: 70})
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Cause != CauseRTADeadlineMiss {
		t.Fatalf("overload admit: err=%v, want rta-deadline-miss rejection", err)
	}
	// Release the first task; the rejected one now fits.
	if !o.Remove(a.Handle) {
		t.Fatal("remove a failed")
	}
	pl, err := o.Admit(task.Task{C: 7, T: 70})
	if err != nil {
		t.Fatalf("re-admit after remove: %v", err)
	}
	// Cold re-analysis of the final set: b (10/20) outranks c (7/70).
	want := []task.Subtask{
		{TaskIndex: 20, Part: 1, C: 10, T: 20, Deadline: 20, Tail: true},
		{TaskIndex: 70, Part: 1, C: 7, T: 70, Deadline: 70, Tail: true},
	}
	got := residents(o, 0)
	if len(got) != len(want) {
		t.Fatalf("residents: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resident %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// c's response: 7 + one preemption of b — f(17) = 7 + ⌈17/20⌉·10 = 17.
	if pl.Response != 17 {
		t.Fatalf("re-admitted response = %d, want 17", pl.Response)
	}
	if o.Remove(a.Handle) {
		t.Fatal("double remove of a released handle succeeded")
	}
	if o.Remove(12345) {
		t.Fatal("remove of an unknown handle succeeded")
	}
}

// TestOnlineRejectionCauses pins the typed causes of the non-packing
// rejection paths.
func TestOnlineRejectionCauses(t *testing.T) {
	cases := []struct {
		policy string
		sur    task.Time
		tk     task.Task
		want   Cause
	}{
		{OnlineRTAFirstFit, 0, task.Task{C: 0, T: 10}, CauseInvalidInput},
		{OnlineRTAFirstFit, 0, task.Task{C: 5, T: 4}, CauseInvalidInput},
		{OnlineRTAFirstFit, 3, task.Task{C: 8, T: 10}, CauseSurchargeInfeasible},
		{OnlineThreshold, 0, task.Task{C: 2, T: 10, D: 5}, CauseModelMismatch},
		{OnlineThreshold, 0, task.Task{C: 10, T: 10}, CauseThresholdExhausted},
	}
	for _, tc := range cases {
		o, err := NewOnline(1, tc.policy, tc.sur)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want == CauseThresholdExhausted {
			// Preload so the threshold has no room for a full-utilization task.
			if _, err := o.Admit(task.Task{C: 5, T: 10}); err != nil {
				t.Fatal(err)
			}
		}
		_, err = o.Admit(tc.tk)
		var rej *Rejection
		if !errors.As(err, &rej) {
			t.Fatalf("policy %s task %s: err=%v, want Rejection", tc.policy, tc.tk, err)
		}
		if rej.Cause != tc.want {
			t.Errorf("policy %s task %s: cause %s, want %s", tc.policy, tc.tk, rej.Cause, tc.want)
		}
		if rej.Error() == "" {
			t.Errorf("policy %s: empty rejection reason", tc.policy)
		}
	}
}

// TestNewOnlineValidation pins the constructor's input checks.
func TestNewOnlineValidation(t *testing.T) {
	if _, err := NewOnline(0, "", 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewOnline(2, "best-fit", 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewOnline(2, "", -1); err == nil {
		t.Error("negative surcharge accepted")
	}
	if _, err := NewOnline(2, "", task.MaxTime+1); !errors.Is(err, task.ErrDomain) {
		t.Errorf("surcharge past MaxTime: %v, want a domain error", err)
	}
	if _, err := NewOnline(2, "", task.MaxTime); err != nil {
		t.Errorf("surcharge at MaxTime: %v", err)
	}
	o, err := NewOnline(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Policy() != OnlineRTAFirstFit || o.M() != 2 || o.Surcharge() != 0 || o.Len() != 0 {
		t.Errorf("defaults: policy=%s m=%d s=%d len=%d", o.Policy(), o.M(), o.Surcharge(), o.Len())
	}
}

// TestOnlineRestoreEquivalence drives random churn through a live cluster,
// rebuilds a twin from ResidentsSnapshot via RestoreResident (handle order,
// recorded processors, restored handle counter), and checks the twin is
// canonically byte-identical — then keeps churning both with the same ops
// and requires identical placements and verdicts, which proves the restored
// warm-start state is at least sound (a stale cache would flip a verdict).
func TestOnlineRestoreEquivalence(t *testing.T) {
	for _, policy := range onlinePolicies {
		t.Run(policy, func(t *testing.T) {
			live, err := NewOnline(3, policy, 1)
			if err != nil {
				t.Fatal(err)
			}
			var handles []uint64
			op := func(o *Online, i int) (Placement, bool, bool) {
				if len(handles) > 0 && i%4 == 3 {
					return Placement{}, o.Remove(handles[0]), false
				}
				T := task.Time(10 * (1 + i%6))
				tk := task.Task{C: 1 + task.Time(i%9), T: T}
				if policy != OnlineThreshold && i%5 == 2 {
					tk.D = tk.C + (T-tk.C)/2
				}
				pl, err := o.Admit(tk)
				return pl, err == nil, true
			}
			for i := 0; i < 300; i++ {
				pl, ok, isAdmit := op(live, i)
				if isAdmit && ok {
					handles = append(handles, pl.Handle)
				} else if !isAdmit && ok {
					handles = handles[1:]
				}
			}

			twin, err := NewOnline(3, policy, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, ri := range live.ResidentsSnapshot() {
				if err := twin.RestoreResident(ri.Proc, ri.Handle, ri.C, ri.T, ri.D); err != nil {
					t.Fatal(err)
				}
			}
			if err := twin.SetHandleSeq(live.HandleSeq()); err != nil {
				t.Fatal(err)
			}
			if a, b := live.AppendCanonical(nil), twin.AppendCanonical(nil); !bytes.Equal(a, b) {
				t.Fatalf("restored canonical state diverged:\nlive %x\ntwin %x", a, b)
			}

			// Joint continuation: run the same literal operations against
			// both clusters side by side; every outcome must agree.
			for i := 0; i < 200; i++ {
				if len(handles) > 0 && i%4 == 3 {
					h := handles[0]
					handles = handles[1:]
					if a, b := live.Remove(h), twin.Remove(h); a != b {
						t.Fatalf("op %d: Remove(%d) diverged: %v vs %v", i, h, a, b)
					}
					continue
				}
				T := task.Time(10 * (1 + i%6))
				tk := task.Task{C: 1 + task.Time(i%9), T: T}
				if policy != OnlineThreshold && i%5 == 2 {
					tk.D = tk.C + (T-tk.C)/2
				}
				pa, ea := live.Admit(tk)
				pb, eb := twin.Admit(tk)
				if (ea == nil) != (eb == nil) || pa != pb {
					t.Fatalf("op %d task %s: live (%+v, %v) vs twin (%+v, %v)", i, tk, pa, ea, pb, eb)
				}
				if ea == nil {
					handles = append(handles, pa.Handle)
				}
			}
			if !bytes.Equal(live.AppendCanonical(nil), twin.AppendCanonical(nil)) {
				t.Fatal("post-continuation canonical state diverged")
			}
		})
	}
}

// TestOnlineRestoreValidation pins RestoreResident/SetHandleSeq input checks.
func TestOnlineRestoreValidation(t *testing.T) {
	o, err := NewOnline(2, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		proc     int
		handle   uint64
		c, tt, d task.Time
	}{
		{-1, 1, 1, 10, 10}, // proc out of range
		{2, 1, 1, 10, 10},  // proc out of range
		{0, 0, 1, 10, 10},  // zero handle
		{0, 1, 0, 10, 10},  // c <= 0
		{0, 1, 5, 10, 4},   // d < c
		{0, 1, 5, 10, 11},  // d > t
		{0, 1, 10, 10, 10}, // infeasible under surcharge 1
	}
	for _, tc := range cases {
		if err := o.RestoreResident(tc.proc, tc.handle, tc.c, tc.tt, tc.d); err == nil {
			t.Errorf("RestoreResident(%+v) accepted", tc)
		}
	}
	if err := o.RestoreResident(1, 7, 3, 10, 10); err != nil {
		t.Fatal(err)
	}
	if err := o.RestoreResident(0, 7, 3, 10, 10); err == nil {
		t.Error("duplicate handle accepted")
	}
	if err := o.SetHandleSeq(6); err == nil {
		t.Error("handle counter moved below restored maximum")
	}
	if err := o.SetHandleSeq(9); err != nil {
		t.Fatal(err)
	}
	if o.HandleSeq() != 9 {
		t.Errorf("HandleSeq = %d, want 9", o.HandleSeq())
	}
	if pl, err := o.Admit(task.Task{C: 1, T: 100}); err != nil || pl.Handle != 10 {
		t.Errorf("post-restore admit: %+v, %v (want handle 10)", pl, err)
	}
}

// TestOnlineClusterIsOneTaskSet pins the resident cap: a cluster is one
// task set of the model's domain, so once it holds task.MaxTasks residents
// the next admission is an invalid-input rejection and the next restore an
// error, both wrapping task.ErrDomain.
func TestOnlineClusterIsOneTaskSet(t *testing.T) {
	const m = 256
	o, err := NewOnline(m, OnlineRTAFirstFit, 0)
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(1); h <= task.MaxTasks; h++ {
		if err := o.RestoreResident(int(h%m), h, 1, 1<<20, 1<<20); err != nil {
			t.Fatalf("restore %d: %v", h, err)
		}
	}
	_, err = o.Admit(task.Task{C: 1, T: 1 << 20})
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Cause != CauseInvalidInput || !errors.Is(errClusterFull, task.ErrDomain) {
		t.Errorf("admission past MaxTasks: %v, want an invalid-input rejection", err)
	}
	if err := o.RestoreResident(0, task.MaxTasks+1, 1, 10, 10); !errors.Is(err, task.ErrDomain) {
		t.Errorf("restore past MaxTasks: %v, want a domain error", err)
	}
}

// residents copies processor q's resident subtasks in priority order (raw
// C) — the input of the scalar oracles that the mirror probe (ProbeRTA) and
// the engine's decisions are tested against.
func residents(o *Online, q int) []task.Subtask {
	out := make([]task.Subtask, len(o.procs[q]))
	for i, r := range o.procs[q] {
		out[i] = r.sub
	}
	return out
}

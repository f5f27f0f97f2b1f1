package partition

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/task"
)

// batchVerdictDigest is the SHA-256 of the fingerprints TestBatchVerdictDigest
// produces. It was computed before the batch partitioners learned to refuse
// over-full processors without an exact test; that shortcut must not move it.
const batchVerdictDigest = "54f4ad61f66a184efe8eaeb08eebe4104389f1d8762796da0f6df3dc10838cc3"

// TestBatchVerdictDigest pins every decision of the strict and splitting
// partitioners at the capacity edge, where most processors are full:
// breakdown-shaped sets (M ∈ {4, 8, 16}, U_i ∈ [0.05, 0.4] at full scale U_M
// = 1) scaled the way the breakdown bisection scales them, to λ ∈ {0.90,
// 0.94, 0.97, 1.00}. partition.util_skips must tick, so the digest covers
// the utilization refusal.
func TestBatchVerdictDigest(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Reset()
	algos := []Algorithm{
		FirstFitRTA{},
		WorstFitRTA{},
		FirstFit{Admission: AdmitRTA},
		FirstFit{Admission: AdmitHyperbolic},
		FirstFit{Admission: AdmitLL},
		FirstFit{Admission: AdmitHanTyan},
		NewRMTS(nil),
		&RMTS{Surcharge: 2},
		RMTSLight{},
		RMTSLight{Surcharge: 1},
	}
	ms := []int{4, 8, 16}
	h := sha256.New()
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 300; i++ {
		m := ms[i%len(ms)]
		shape, err := gen.TaskSet(r, gen.Config{TargetU: float64(m), UMin: 0.05, UMax: 0.40})
		if err != nil {
			t.Fatal(err)
		}
		for _, lambda := range []float64{0.90, 0.94, 0.97, 1.00} {
			ts := scaleSet(shape, lambda)
			for _, alg := range algos {
				h.Write([]byte(resultFingerprint(alg.Partition(ts, m))))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != batchVerdictDigest {
		t.Fatalf("capacity-edge partitioning decisions changed: digest %s, want %s", got, batchVerdictDigest)
	}
	if cUtilSkips.Value() == 0 {
		t.Fatal("partition.util_skips never ticked: the digest does not exercise the utilization refusal")
	}
}

// scaleSet scales every execution time by lambda the way the breakdown
// bisection does: C ← round(λ·C), clamped to [1, T].
func scaleSet(shape task.Set, lambda float64) task.Set {
	out := make(task.Set, len(shape))
	for i, tk := range shape {
		c := min(max(task.Time(float64(tk.C)*lambda+0.5), 1), tk.T)
		out[i] = task.Task{Name: tk.Name, C: c, T: tk.T}
	}
	return out
}

// TestBatchUtilSkipsCounter pins partition.util_skips — one tick per
// processor refused by utilization alone — and the trace line of a refused
// fit probe, on hand-built sets.
func TestBatchUtilSkipsCounter(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	// Strict fit: three 0.6 tasks on two processors. τ1 skips P0; τ2 skips
	// P0 and P1 and fails.
	obs.Reset()
	tr := obs.NewTrace()
	res := FirstFitRTA{Trace: tr}.Partition(task.Set{{C: 6, T: 10}, {C: 6, T: 10}, {C: 6, T: 10}}, 2)
	if res.OK {
		t.Fatal("three 0.6 tasks fit on two processors")
	}
	if got := cUtilSkips.Value(); got != 3 {
		t.Errorf("first fit: util_skips = %d, want 3", got)
	}
	var buf bytes.Buffer
	tr.WriteText(&buf)
	const want = "#1    reject         τ1.1 by P0 — utilization room: U_q + u > 1, no RTA"
	if lines := strings.Split(buf.String(), "\n"); lines[1] != want {
		t.Errorf("trace line 1 = %q, want %q\nfull trace:\n%s", lines[1], want, buf.String())
	}
	for _, e := range tr.Events() {
		if e.Kind == obs.EvReject && e.RTAIters != 0 {
			t.Errorf("refused probe spent %d RTA iterations: %v", e.RTAIters, e)
		}
	}

	// Splitting: RM-TS/light puts the 0.55 tasks τ2 and τ1 on P0 and P1;
	// τ0 would take P0 to 1.1, so it skips the whole-placement probe, and
	// MaxSplit, capped at the room ⌊0.45·20⌋ = 9, places C′ = 9 there. The
	// remainder fits P1 without a skip.
	obs.Reset()
	res = RMTSLight{}.Partition(traceSet(), 2)
	if !res.OK || res.NumSplit != 1 {
		t.Fatalf("RM-TS/light: OK=%v splits=%d, want a one-split success", res.OK, res.NumSplit)
	}
	if got := cUtilSkips.Value(); got != 1 {
		t.Errorf("RM-TS/light: util_skips = %d, want 1", got)
	}
	if body := res.Assignment.Procs[0][0]; body.TaskIndex != 0 || body.C != 9 {
		t.Errorf("split body = %v, want τ0 with C = 9", body)
	}
}

// FuzzBatchUtilRuleSound checks the batch partitioners' utilization rule as
// a property on one processor. Whenever OverUtilized holds for a candidate,
// the scalar RTA must refuse it on the surcharged list, and so must the HB,
// LL and HT admissions on the raw one; and for every draw, MaxSplit with the
// room-capped budget (utilRoomBudget) must find the same portion as with
// the uncapped one. The first byte picks the surcharge (0–3), the second a
// shared left shift that scales every magnitude up to ~2^40, the next four
// the candidate (period, execution share, deadline share, priority slot
// among the residents); each following 3-byte group is one resident
// (period, execution share, deadline share) with Δ ≤ T. Residents are not
// admitted first, so the list may already be unschedulable.
func FuzzBatchUtilRuleSound(f *testing.F) {
	f.Add([]byte{0, 0, 40, 128, 255, 1, 40, 128, 255, 40, 100, 255})
	f.Add([]byte{2, 30, 10, 200, 100, 0, 10, 200, 100, 90, 60, 200, 3, 50, 255})
	f.Add([]byte{1, 12, 60, 250, 30, 2, 7, 90, 255, 0, 3, 250, 5, 255, 255, 5, 100, 255})
	f.Add([]byte{3, 0, 0, 255, 255, 3, 0, 255, 255, 0, 1, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		s := task.Time(data[0] % 4)
		shift := uint(data[1] % 31)
		draw := func(b1, b2, b3 byte) (c, T, d task.Time) {
			T = task.Time(16+4*int(b1)) << shift
			c = max(T*task.Time(b2)/256, 1)
			return c, T, c + (T-c)*task.Time(b3)/255
		}
		c, T, d := draw(data[2], data[3], data[4])
		slot := int(data[5])
		data = data[6:]
		if len(data) > 36 {
			data = data[:36]
		}
		var raw, sur []task.Subtask
		uq := 0.0
		for k := 0; len(data) >= 3; k++ {
			rc, rT, rd := draw(data[0], data[1], data[2])
			data = data[3:]
			sub := task.Subtask{TaskIndex: 2*k + 1, Part: 1, C: rc, T: rT, Deadline: rd, Offset: rT - rd, Tail: true}
			raw = append(raw, sub)
			sub.C += s
			sur = append(sur, sub)
			uq += raw[k].Utilization()
		}
		prio := 2 * (slot % (len(raw) + 1))
		if OverUtilized(uq, float64(c)/float64(T)) {
			if fitsAt(sur, prio, c+s, T, d) {
				t.Fatalf("over-utilized (%v + %v) but exact RTA accepts %d/%d/%d at %d over %v",
					uq, float64(c)/float64(T), c+s, T, d, prio, sur)
			}
			for _, a := range []Admission{AdmitHyperbolic, AdmitLL, AdmitHanTyan} {
				if a.admits(raw, c, T, new(Arena)) {
					t.Fatalf("over-utilized (%v + %v) but %s admits %d/%d over %v",
						uq, float64(c)/float64(T), a, c, T, raw)
				}
			}
		}
		want := maxPortionOf(sur, prio, T, c+s, d)
		if got := maxPortionOf(sur, prio, T, utilRoomBudget(uq, c, T, s), d); got != want {
			t.Fatalf("room-capped MaxSplit = %d, uncapped %d (U_q %v, c %d, T %d, Δ %d, s %d, prio %d, list %v)",
				got, want, uq, c, T, d, s, prio, sur)
		}
	})
}

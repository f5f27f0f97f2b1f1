package partition

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/edfa"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/task"
)

// splitByWindowsReference is splitByWindows before the lazy selection: every
// processor's exact budget is computed at every window count, then the
// candidates are insertion-sorted and a prefix is taken. Kept verbatim as
// the oracle for the lazy selection.
func splitByWindowsReference(ar *Arena, asg *task.Assignment, demands [][]edfa.Demand, i int, t task.Task, m int, tr *obs.Trace) bool {
	d := t.Deadline()
	base := t.T - d
	budget := ar.budgetBuf(m, t.C)
	for k := task.Time(2); k <= task.Time(m); k++ {
		w := d / k
		if w < 1 {
			break
		}
		caps := ar.caps[:0]
		for q := 0; q < m; q++ {
			if budget[q] == 0 {
				continue
			}
			budget[q], ar.scratch = edfa.MaxAdditionalDemandScratch(demands[q], t.T, w, budget[q], ar.scratch)
			if budget[q] > 0 {
				caps = append(caps, edfCap{q: q, c: budget[q]})
			}
		}
		ar.caps = caps
		for a := 1; a < len(caps); a++ {
			x := caps[a]
			b := a - 1
			for b >= 0 && (x.c > caps[b].c || (x.c == caps[b].c && x.q < caps[b].q)) {
				caps[b+1] = caps[b]
				b--
			}
			caps[b+1] = x
		}
		var total task.Time
		use := 0
		for use < len(caps) && use < int(k) && total < t.C {
			total += caps[use].c
			use++
		}
		if total < t.C {
			continue // k windows cannot cover the demand; widen the split
		}
		// Assign fragments: part i gets window [(i−1)w, i·w].
		remaining := t.C
		for part := 1; part <= use; part++ {
			c := caps[part-1].c
			if c > remaining {
				c = remaining
			}
			offset := base + task.Time(part-1)*w
			edfAdd(asg, demands, caps[part-1].q, task.Subtask{
				TaskIndex: i, Part: part, C: c, T: t.T,
				Deadline: w, Offset: offset, Tail: part == use || remaining == c,
			})
			if tr != nil {
				tr.Add(obs.Event{Kind: obs.EvSplit, Task: i, Part: part, Proc: caps[part-1].q,
					C: t.C, Portion: c, Remainder: remaining - c, Deadline: w,
					Note: fmt.Sprintf("window %d of %d (w=%d)", part, k, w)})
			}
			remaining -= c
			if remaining == 0 {
				break
			}
		}
		if remaining != 0 {
			panic("partition: EDF-TS window accounting broke")
		}
		return true
	}
	return false
}

// edftsReference is EDFTS.PartitionArena splitting with
// splitByWindowsReference: the whole EDF-TS computation as it was before the
// lazy selection.
func edftsReference(ts task.Set, m int, ar *Arena, tr *obs.Trace) *Result {
	sorted, asg, fail := ar.prepare(ts, m)
	if fail != nil {
		return fail
	}
	res := ar.result("EDF")
	idxs := ar.taskOrder(sorted, DecreasingUtilization)
	demands := ar.demandsBuf(m)
	for _, i := range idxs {
		t := sorted[i]
		d := t.Deadline()
		placed := false
		for q := 0; q < m; q++ {
			cAssignAttempts.Inc()
			scratch := append(ar.scratch[:0], demands[q]...)
			scratch = append(scratch, edfa.Demand{C: t.C, T: t.T, D: d})
			ar.scratch = scratch
			if edfa.Schedulable(scratch) {
				edfAdd(asg, demands, q, task.Whole(i, t))
				cAssignWhole.Inc()
				if tr != nil {
					tr.Add(obs.Event{Kind: obs.EvAssigned, Task: i, Part: 1, Proc: q,
						C: t.C, Deadline: d, OK: true, Note: "QPA demand test"})
				}
				placed = true
				break
			} else if tr != nil {
				tr.Add(obs.Event{Kind: obs.EvReject, Task: i, Part: 1, Proc: q,
					C: t.C, Deadline: d, Note: "QPA demand test"})
			}
		}
		if placed {
			continue
		}
		if !splitByWindowsReference(ar, asg, demands, i, t, m, tr) {
			failWith(res, CauseDemandOverload, i,
				fmt.Sprintf("no window split fits τ%d (demand test)", i))
			traceFail(tr, i, res.Reason)
			return res
		}
		res.NumSplit++
		cWindowSplits.Inc()
	}
	res.OK = true
	res.Guaranteed = true
	traceDone(tr, res)
	return res
}

// edftsShape draws one EDF-TS input the way the experiments do: shape 0 is
// E15's (U_i ∈ [0.05, 0.7]), shape 1 E16's (U_i ∈ [0.05, 0.4]) and shape 2
// a heavy variant (U_i ∈ [0.05, 0.95]), all at U_M = um. A positive f
// tightens every deadline to D/T ∈ [f, min(f+0.1, 1)] as E16 does.
func edftsShape(r *rand.Rand, shape, m int, um, f float64) (task.Set, error) {
	umax := [...]float64{0.7, 0.4, 0.95}[shape%3]
	ts, err := gen.TaskSet(r, gen.Config{TargetU: um * float64(m), UMin: 0.05, UMax: umax})
	if err != nil || f <= 0 {
		return ts, err
	}
	return gen.Constrain(r, ts, f, min(f+0.1, 1))
}

// checkEDFTSVsReference fails t unless EDF-TS and the reference driver agree
// on every Result field, every per-processor subtask list and every trace
// event.
func checkEDFTSVsReference(t *testing.T, ts task.Set, m int) {
	t.Helper()
	tr, trRef := obs.NewTrace(), obs.NewTrace()
	got := EDFTS{Trace: tr}.PartitionArena(ts, m, &Arena{})
	want := edftsReference(ts, m, &Arena{}, trRef)
	if g, w := resultFingerprint(got), resultFingerprint(want); g != w || got.Cause != want.Cause {
		t.Fatalf("m=%d set=%v\nEDF-TS (cause %v):\n%s\nreference (cause %v):\n%s", m, ts, got.Cause, g, want.Cause, w)
	}
	if !reflect.DeepEqual(tr.Events(), trRef.Events()) {
		t.Fatalf("m=%d set=%v: trace events differ\nEDF-TS:    %v\nreference: %v", m, ts, tr.Events(), trRef.Events())
	}
}

// FuzzEDFTSSplitVsReference checks the lazy window selection against the
// former probe-all split. The seed drives the generator; mb picks m (2–16,
// or 65–72 from 240 up), shape the utilization range (edftsShape), ub the
// normalized utilization U_M ∈ [0.5, 1.0] and db the deadlines (0 implicit,
// otherwise D/T from 0.4 up).
func FuzzEDFTSSplitVsReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint8(200), uint8(0))
	f.Add(int64(2), uint8(6), uint8(1), uint8(220), uint8(100))
	f.Add(int64(3), uint8(14), uint8(2), uint8(255), uint8(0))
	f.Add(int64(4), uint8(0), uint8(2), uint8(240), uint8(1))
	f.Add(int64(5), uint8(3), uint8(0), uint8(250), uint8(200))
	f.Add(int64(6), uint8(250), uint8(0), uint8(235), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, mb, shape, ub, db uint8) {
		m := 2 + int(mb)%15
		if mb >= 240 {
			m = 65 + int(mb)%8
		}
		um := 0.5 + 0.5*float64(ub)/255
		fr := 0.0
		if db > 0 {
			fr = 0.4 + 0.6*float64(db-1)/254
		}
		ts, err := edftsShape(rand.New(rand.NewSource(seed)), int(shape), m, um, fr)
		if err != nil {
			return
		}
		checkEDFTSVsReference(t, ts, m)
	})
}

// edftsVerdictDigest is the SHA-256 of the fingerprints TestEDFTSVerdictDigest
// produces. It was computed with the former probe-all window split; the lazy
// selection must not move it.
const edftsVerdictDigest = "7b9d3db61279fc63dfea11c1ef7a66d4ff4618235d38bd2fd07d5ab686cb19a0"

// TestEDFTSVerdictDigest pins every EDF-TS decision on E15- and E16-shaped
// sets near capacity: U_M ∈ {0.85, 0.90, 0.95, 1.00} on M ∈ {4, 8}, E15's
// U_i ∈ [0.05, 0.7] with implicit deadlines and E16's U_i ∈ [0.05, 0.4]
// with D/T from 0.4 to 1.0. Window splits must happen, so the digest covers
// splitByWindows.
func TestEDFTSVerdictDigest(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Reset()
	h := sha256.New()
	r := rand.New(rand.NewSource(21))
	ar := &Arena{}
	for i := 0; i < 40; i++ {
		m := 4 << (i % 2)
		for _, um := range []float64{0.85, 0.90, 0.95, 1.00} {
			for _, f := range []float64{0, 0, 0.9, 0.7, 0.5, 0.4} {
				shape := 0
				if f > 0 {
					shape = 1
				}
				ts, err := edftsShape(r, shape, m, um, f)
				if err != nil {
					t.Fatal(err)
				}
				h.Write([]byte(resultFingerprint(EDFTS{}.PartitionArena(ts, m, ar))))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != edftsVerdictDigest {
		t.Fatalf("EDF-TS decisions changed: digest %s, want %s", got, edftsVerdictDigest)
	}
	if cWindowSplits.Value() == 0 {
		t.Fatal("partition.edf.window_splits never ticked: the digest does not exercise the window split")
	}
}

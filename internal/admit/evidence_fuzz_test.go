package admit

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/bounds"
	"repro/internal/explain"
	"repro/internal/mathx"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/task"
)

// FuzzEvidenceVsProbeRTA pins rejection evidence computed on the engine's
// mirror (Online.ProbeRTA, one backing slice per value kind) to a scalar
// oracle: scalarEvidence over a surcharged copy of each processor's
// resident list, and explain.ProbeThreshold over the copy's surcharged
// utilization. A processor the candidate would push past U = 1
// (partition.OverUtilized) instead carries exactly the utilization room
// 1 − Utilization(q), and the scalar oracle must confirm the refusal there:
// the candidate's own verdict is not fits, or a resident is blocked.
// Residents are decoded from varints, so the fuzzer reaches constrained
// deadlines, priority ties, surcharges and parameters past task.MaxTime
// (which the engine must refuse to restore) as readily as small task sets.
func FuzzEvidenceVsProbeRTA(f *testing.F) {
	seed := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// Per record: op (0 restore on processor op/3, 1 admit, 2 remove), then
	// C-1, D-C-s and T-D, each doubled (the decoder halves every varint).
	f.Add(seed(0, 38, 160, 0, 6, 58, 140, 0, 0, 18, 80, 100, 2, 8, 20, 40), uint8(2), int64(0), int64(40), int64(100), int64(0))
	f.Add(seed(2, 38, 20, 0, 2, 58, 40, 0, 2, 18, 80, 100, 2, 8, 20, 40, 2, 8, 20, 40, 10, 0, 0, 0, 2, 4, 40, 0), uint8(1), int64(0), int64(30), int64(100), int64(0))
	f.Add(seed(0, 4, 10, 6, 0, 4, 10, 6, 0, 0, 2, 0), uint8(1), int64(1), int64(3), int64(10), int64(8))
	f.Add(seed(0, 1<<41, 1<<61, 1<<62, 0, 14, 1<<63, 0), uint8(1), int64(2), int64(1<<40), int64(math.MaxInt64/2), int64(0))
	f.Add(seed(0, 0, 0, 1<<63, 0, 0, 0, 1<<63), uint8(1), int64(0), int64(1), int64(math.MaxInt64), int64(math.MaxInt64-1))
	f.Fuzz(func(t *testing.T, data []byte, mByte uint8, s, c, T, D int64) {
		// Huge deadlines over tiny periods can need ~10^18 iterates; a small
		// cap keeps each input fast and exercises the aborted verdict too.
		defer func(old int64) { rta.MaxIters = old }(rta.MaxIters)
		rta.MaxIters = 1 << 10

		m := 1 + int(mByte%4)
		if s < 0 || s > 1<<20 {
			return
		}
		cand := task.Task{C: c, T: T, D: D}
		if cand.Validate() != nil || c > T-s {
			return // the engine rejects these before any processor is probed
		}
		eng, err := partition.NewOnline(m, partition.OnlineRTAFirstFit, s)
		if err != nil {
			t.Fatal(err)
		}
		next := func() (int64, bool) {
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return 0, false
			}
			data = data[n:]
			return int64(v >> 1), true
		}
		// Each record is an op on the engine: restore a resident on a chosen
		// processor, admit one through the engine's own placement, or
		// remove one, so the mirror probe meets the states the service
		// reaches by churn as well as arbitrary recovered layouts.
		for i := 0; i < 64; i++ {
			op, ok1 := next()
			cm1, ok2 := next()
			slackD, ok3 := next()
			slackT, ok4 := next()
			if !(ok1 && ok2 && ok3 && ok4) {
				break
			}
			if op%3 == 2 {
				eng.Remove(uint64(op/3)%(eng.HandleSeq()+1) + 1)
				continue
			}
			rc := mathx.AddSat(cm1, 1)
			rd := mathx.AddSat(mathx.AddSat(rc, s), slackD)
			rt := mathx.AddSat(rd, slackT)
			if op%3 == 1 {
				eng.Admit(task.Task{C: rc, T: rt, D: rd})
				continue
			}
			err := eng.RestoreResident(int(op/3%int64(m)), eng.HandleSeq()+1, rc, rt, rd)
			if rt > task.MaxTime {
				if !errors.Is(err, task.ErrDomain) {
					t.Fatalf("restore (c=%d t=%d d=%d) past MaxTime: got %v, want a domain error", rc, rt, rd, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("restore (c=%d t=%d d=%d): %v", rc, rt, rd, err)
			}
		}
		cl := &Cluster{eng: eng}
		d := cand.Deadline()
		rtaEv := cl.evidence(partition.CauseRTADeadlineMiss, cand)
		thrEv := cl.evidence(partition.CauseThresholdExhausted, cand)
		for q := 0; q < m; q++ {
			list := make([]task.Subtask, eng.ProcLen(q))
			for i := range list {
				list[i] = eng.ResidentAt(q, i)
			}
			u := 0.0
			for i := range list {
				u += float64(list[i].C+s) / float64(list[i].T)
				list[i].C += s
			}
			want := scalarEvidence(list, int(d), cand.C+s, cand.T, d)
			if partition.OverUtilized(eng.Utilization(q), cand.Utilization()) {
				if want.OwnVerdict == rta.VerdictFits.String() && want.Blocked == nil {
					t.Fatalf("proc %d refused by utilization (u=%v + %v), but the scalar RTA fits (s=%d cand=%v residents=%v)",
						q, eng.Utilization(q), cand.Utilization(), s, cand, list)
				}
				want = &explain.ProcEvidence{UtilizationRoom: 1 - eng.Utilization(q), HasUtilization: true}
			}
			if got := rtaEv[q].Detail; !reflect.DeepEqual(got, want) {
				t.Fatalf("proc %d rta evidence diverged (s=%d cand=%v residents=%v)\n got %+v %+v\nwant %+v %+v",
					q, s, cand, list, got, got.Blocked, want, want.Blocked)
			}
			wantThr := explain.ProbeThreshold(u, bounds.LL(len(list)+1))
			if got := thrEv[q].Detail; !reflect.DeepEqual(got, wantThr) {
				t.Fatalf("proc %d threshold evidence diverged: got %+v, want %+v", q, got, wantThr)
			}
			for _, ev := range []ProcEvidence{rtaEv[q], thrEv[q]} {
				if ev.Proc != q || ev.Residents != len(list) || ev.Utilization != eng.Utilization(q) {
					t.Fatalf("proc %d header diverged: %+v (residents %d)", q, ev, len(list))
				}
			}
		}
	})
}

// scalarEvidence is the oracle of FuzzEvidenceVsProbeRTA: the RTA evidence
// of a load (c, t, d) with priority key prio on a priority-sorted resident
// list whose C already carry the surcharge — the load's own fixed point
// against d and the first resident below it whose deadline breaks — from
// its own fixed-point loop over a spliced list copy, with neither
// rta.ProcState nor the rta kernels. Like them it cold-starts each fixed
// point at the sum of the executions in view and gives up after
// rta.MaxIters demand evaluations.
func scalarEvidence(list []task.Subtask, prio int, c, t, d task.Time) *explain.ProcEvidence {
	pos := 0
	for pos < len(list) && list[pos].TaskIndex <= prio {
		pos++
	}
	post := append(append(append([]task.Subtask(nil), list[:pos]...), task.Subtask{C: c, T: t}), list[pos:]...)
	response := func(k int, limit task.Time) (task.Time, rta.Verdict) {
		own := post[k].C
		if own > limit {
			return own, rta.VerdictExceedsLimit
		}
		r := own
		for _, hp := range post[:k] {
			r += hp.C
		}
		for iters := int64(0); ; iters++ {
			if r > limit {
				return r, rta.VerdictExceedsLimit
			}
			if iters >= rta.MaxIters {
				return r, rta.VerdictAborted
			}
			next := own
			for _, hp := range post[:k] {
				next += mathx.CeilDiv(r, hp.T) * hp.C
			}
			if next == r {
				return r, rta.VerdictFits
			}
			r = next
		}
	}
	r, v := response(pos, d)
	ev := &explain.ProcEvidence{OwnResponse: r, OwnVerdict: v.String()}
	for i := pos; i < len(list); i++ {
		if rr, rv := response(i+1, list[i].Deadline); rv != rta.VerdictFits {
			ev.Blocked = &explain.BlockedResident{
				Task: list[i].TaskIndex, Part: list[i].Part,
				C: list[i].C, Deadline: list[i].Deadline,
				Response: rr, Verdict: rv.String(),
			}
			break
		}
	}
	return ev
}

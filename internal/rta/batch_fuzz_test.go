package rta

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/task"
)

// FuzzBatchVsScalarRTA pins every production RTA kernel to the
// array-of-structs references of reference_test.go on arbitrary admission
// streams. Each 4-byte group is one admission attempt; the selector's low
// bit picks a near-MaxInt64 magnitude class, so the stream drives both the
// fast kernels (batchSafe accepts) and their checked fallbacks (batchSafe
// rejects). After every attempt it compares, on the surcharged view:
//
//   - after every admitted Insert, the responses it adopted from the probe
//     against a cold analysis of the post-insert processor;
//   - the ProcState accessors (AdmitAt, warm-started ResponseAt,
//     SlackAtMost capped and uncapped, MaxOwnLoadAt at every position);
//   - the checked kernels called directly (fixpointChecked with its
//     iteration count, slackCheckedBatch, maxOwnLoadCheckedBatch);
//   - the scalar list API (SchedulableWithExtraAt, SubtaskResponse,
//     ProcessorSchedulable, Slack, MaxOwnLoad).
func FuzzBatchVsScalarRTA(f *testing.F) {
	f.Add([]byte{0, 40, 3, 5, 2, 80, 7, 9, 0, 33, 2, 1})
	f.Add([]byte{1, 200, 250, 3, 3, 255, 255, 255})
	f.Add([]byte{0, 10, 1, 0, 1, 2, 2, 2, 0, 90, 11, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 120 {
			data = data[:120]
		}
		s := task.Time(len(data) % 3)
		ps := &ProcState{Surcharge: s}
		var list []task.Subtask
		var buf []task.Time
		next := 0
		for op := 0; len(data) >= 4; op++ {
			sel, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			ctx := fmt.Sprintf("op %d (surcharge %d)", op, s)
			var T, c, d task.Time
			if sel&1 == 1 {
				// Near-MaxInt64 magnitudes: interferenceBound overflows, so
				// the probe runs the checked kernels instead of the fast path.
				T = math.MaxInt64/2 + task.Time(b1)*(math.MaxInt64/512)
				c = T/4 + task.Time(b2)
				d = T - task.Time(b3)
				if d < c {
					d = c
				}
			} else {
				T = task.Time(20 + int(b1)*8)
				c = task.Time(1 + int(b2)%(int(T)/3+1))
				d = T - task.Time(int(b3)%(int(T)/3+1))
				if d < c {
					d = c
				}
			}
			prio := next
			if sel&2 == 2 && len(list) > 0 {
				prio = list[int(b1)%len(list)].TaskIndex
			}
			next += 2
			pre := surchargedView(list, s)
			want := refSchedulableWithExtraAt(pre, prio, c+s, T, d)
			if got := SchedulableWithExtraAt(pre, prio, c+s, T, d); got != want {
				t.Fatalf("%s: SchedulableWithExtraAt=%v, reference=%v", ctx, got, want)
			}
			got := ps.AdmitAt(prio, c, T, d)
			if got != want {
				t.Fatalf("%s: AdmitAt(%d,%d,%d,%d)=%v, from-scratch=%v", ctx, prio, c, T, d, got, want)
			}
			if got {
				sub := task.Subtask{TaskIndex: prio, Part: 1, C: c, T: T, Deadline: d, Tail: true}
				pos := ps.Insert(sub)
				list = insertSub(list, pos, sub)
				// The probe's staged responses, adopted by the Insert, are
				// the converged responses of the post-insert processor.
				sur := surchargedView(list, s)
				for i := range list {
					wantR, _ := refSubtaskResponse(sur, i)
					if got := ps.b.resp[i]; got != wantR {
						t.Fatalf("%s: adopted response %d = %d, cold analysis %d", ctx, i, got, wantR)
					}
				}
			}
			sur := surchargedView(list, s)
			if got, want := ProcessorSchedulable(sur), refProcessorSchedulable(sur); got != want {
				t.Fatalf("%s: ProcessorSchedulable=%v, reference=%v", ctx, got, want)
			}
			cs, ts := Mirror(sur, &buf)
			for i := range list {
				wantR, wantOK := refSubtaskResponse(sur, i)
				if gotR, gotOK := SubtaskResponse(sur, i); gotOK != wantOK || gotR != wantR {
					t.Fatalf("%s: SubtaskResponse(%d)=(%d,%v), reference=(%d,%v)", ctx, i, gotR, gotOK, wantR, wantOK)
				}
				own, dl := sur[i].C, sur[i].Deadline
				hp := hpOf(sur, i)
				wr, wv, wi := iterate(own, hp, 0, 0, dl, refColdStart(own, hp, 0))
				if gr, gv, gi := fixpointChecked(own, cs[:i], ts[:i], dl, coldStart(own, cs[:i])); gr != wr || gv != wv || gi != wi {
					t.Fatalf("%s: fixpointChecked(%d)=(%d,%v,%d), iterate=(%d,%v,%d)", ctx, i, gr, gv, gi, wr, wv, wi)
				}
				gotR, gotOK := ps.ResponseAt(i, list[i].Deadline)
				if gotOK != wantOK || (gotOK && gotR != wantR) {
					t.Fatalf("%s: ResponseAt(%d)=(%d,%v), SubtaskResponse=(%d,%v)",
						ctx, i, gotR, gotOK, wantR, wantOK)
				}
				// The testing-point scans enumerate ~Σ d/T_j points, which is
				// unbounded when a near-MaxInt64 deadline meets small-period
				// interferers — skip the scan cross-checks for such pairs
				// (the response/verdict comparisons above still run).
				if scanPoints(ts[:i], dl)+int64(dl/T) >= 1<<16 {
					continue
				}
				exact := refSlack(sur, i, T)
				if got := ps.SlackAtMost(i, T, math.MaxInt64); got != exact {
					t.Fatalf("%s: SlackAtMost(%d,%d,uncapped)=%d, reference slack=%d", ctx, i, T, got, exact)
				}
				if got := Slack(own, dl, cs[:i], ts[:i], T); got != exact {
					t.Fatalf("%s: Slack(%d,%d)=%d, reference slack=%d", ctx, i, T, got, exact)
				}
				// The capped scan must be exact below its cap and a valid
				// ≥-cap witness at or above it.
				cap := task.Time(1 + int(b2))
				capped := ps.SlackAtMost(i, T, cap)
				if capped < cap && capped != exact {
					t.Fatalf("%s: SlackAtMost(%d,%d,%d)=%d below cap but exact slack is %d",
						ctx, i, T, cap, capped, exact)
				}
				if capped >= cap && exact < cap {
					t.Fatalf("%s: SlackAtMost(%d,%d,%d)=%d claims ≥ cap but exact slack is %d",
						ctx, i, T, cap, capped, exact)
				}
			}
			// The max own load of a deadline-d load at every insertion
			// position: the fast kernel (with its checked fallback) behind
			// MaxOwnLoadAt, and the list API's checked kernel.
			for pos := 0; pos <= len(list); pos++ {
				if scanPoints(ts[:pos], d) >= 1<<16 {
					break
				}
				want := refMaxOwnLoad(hpOf(sur, pos), d)
				if got := ps.MaxOwnLoadAt(pos, d); got != want {
					t.Fatalf("%s: MaxOwnLoadAt(%d,%d)=%d, reference=%d", ctx, pos, d, got, want)
				}
				if got := MaxOwnLoad(cs[:pos], ts[:pos], d); got != want {
					t.Fatalf("%s: MaxOwnLoad(%d,%d)=%d, reference=%d", ctx, pos, d, got, want)
				}
			}
		}
	})
}

// scanPoints bounds the testing points a scan to deadline d over periods
// ts enumerates, stopping once the count passes 1<<16.
func scanPoints(ts []task.Time, d task.Time) int64 {
	n := int64(0)
	for _, tj := range ts {
		if n += int64(d / tj); n >= 1<<16 {
			break
		}
	}
	return n
}

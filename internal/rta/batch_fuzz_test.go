package rta

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/task"
)

// FuzzBatchVsScalarRTA pins the struct-of-arrays batch kernel to the scalar
// reference on arbitrary admission streams: every verdict, converged
// response, and slack the ProcState accessors produce must equal the
// from-scratch slice-based evaluation of the equivalent surcharged view.
// Each 4-byte group is one admission attempt; the selector's low bit picks
// a near-MaxInt64 magnitude class so the stream drives both fixpointFast
// (batchSafe accepts) and the checked fallback twins (batchSafe rejects),
// and every warm-started response is compared against the cold scalar
// fixed point.
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
		next := 0
		for op := 0; len(data) >= 4; op++ {
			sel, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			ctx := fmt.Sprintf("op %d (surcharge %d)", op, s)
			var T, c, d task.Time
			if sel&1 == 1 {
				// Near-MaxInt64 magnitudes: interferenceBound overflows, so
				// the probe runs the checked twins instead of the fast path.
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
			want := SchedulableWithExtraAt(surchargedView(list, s), prio, c+s, T, d)
			got := ps.AdmitAt(prio, c, T, d)
			if got != want {
				t.Fatalf("%s: AdmitAt(%d,%d,%d,%d)=%v, from-scratch=%v", ctx, prio, c, T, d, got, want)
			}
			if got {
				sub := task.Subtask{TaskIndex: prio, Part: 1, C: c, T: T, Deadline: d, Tail: true}
				pos := ps.Insert(sub)
				list = insertSub(list, pos, sub)
			}
			sur := surchargedView(list, s)
			for i := range list {
				wantR, wantOK := SubtaskResponse(sur, i)
				gotR, gotOK := ps.ResponseAt(i, list[i].Deadline)
				if gotOK != wantOK || (gotOK && gotR != wantR) {
					t.Fatalf("%s: ResponseAt(%d)=(%d,%v), SubtaskResponse=(%d,%v)",
						ctx, i, gotR, gotOK, wantR, wantOK)
				}
				// The slack scans enumerate ~Σ d/T_j testing points, which is
				// unbounded when a near-MaxInt64 deadline meets small-period
				// interferers — skip the slack cross-check for such pairs
				// (the response/verdict comparisons above still run).
				pts := int64(0)
				for j := 0; j < i && pts < 1<<16; j++ {
					pts += int64(list[i].Deadline / list[j].T)
				}
				if pts+int64(list[i].Deadline/T) >= 1<<16 {
					continue
				}
				exact := ps.SlackAt(i, T)
				if scalar := Slack(sur, i, T); exact != scalar {
					t.Fatalf("%s: SlackAt(%d,%d)=%d, scalar Slack=%d", ctx, i, T, exact, scalar)
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
		}
	})
}

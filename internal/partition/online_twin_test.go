package partition

import (
	"testing"

	"repro/internal/task"
)

// FuzzOnlineBatchTwin checks that the online engine's rta-ff and rta-wf
// policies are the strict partitioners P-RM-FF and P-RM-WF the evaluation
// measures. It partitions a set with FirstFitRTA or WorstFitRTA, then
// admits the same DM-sorted tasks one by one into an empty
// NewOnline(m, rta-ff|rta-wf, 0) in the batch's consideration order. Both
// must reach the same verdict, refuse the same first task
// (Result.FailedTask) and put every admitted task on the same processor —
// always for first fit, and for worst fit when deadlines are pairwise
// distinct. With equal deadlines the two sum a processor's utilizations in
// a different order (task index versus admission order), so a one-ulp
// difference can flip a worst-fit tie between two processors of equal
// exact utilization. Each admission still agrees up to that first flip
// (the admitting processors are the same, only the pick among tied ones
// differs); after it the two pack different states, and even the first
// refused task may differ. The check then stops at the flip.
//
// The first byte picks M (1–4), first or worst fit and the FitOrder; the
// second a left shift that scales every period up to 2^15×, with its top
// bit folding periods onto four values so equal deadlines are common. Each
// following 3-byte group is one task (period, execution share, deadline
// share) with C ≤ D ≤ T.
func FuzzOnlineBatchTwin(f *testing.F) {
	f.Add([]byte{0, 0, 40, 128, 255, 40, 128, 255, 40, 100, 255})
	f.Add([]byte{5, 128, 1, 90, 255, 1, 90, 255, 2, 60, 255, 3, 200, 255, 0, 120, 255, 1, 30, 255})
	f.Add([]byte{14, 3, 10, 200, 100, 90, 60, 200, 3, 50, 255, 12, 250, 30, 7, 90, 255, 0, 3, 250})
	f.Add([]byte{23, 140, 0, 64, 255, 1, 64, 255, 2, 64, 255, 3, 64, 255, 0, 64, 255, 1, 64, 255, 2, 64, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := 1 + int(data[0]%4)
		worst := data[0]>>2&1 == 1
		order := FitOrder(data[0] >> 3 % 3)
		shift, coarse := uint(data[1]%16), data[1] >= 128
		data = data[2:]
		if len(data) > 48 {
			data = data[:48]
		}
		var ts task.Set
		for ; len(data) >= 3; data = data[3:] {
			b1 := int(data[0])
			if coarse {
				b1 = 60 * (b1 % 4)
			}
			T := task.Time(16+4*b1) << shift
			c := max(T*task.Time(data[1])/256, 1)
			ts = append(ts, task.Task{C: c, T: T, D: c + (T-c)*task.Time(data[2])/255})
		}
		if len(ts) == 0 {
			return
		}
		checkOnlineBatchTwin(t, ts, m, worst, order)
	})
}

// checkOnlineBatchTwin runs one FuzzOnlineBatchTwin comparison and reports
// whether it stopped at a worst-fit tie flip.
func checkOnlineBatchTwin(t *testing.T, ts task.Set, m int, worst bool, order FitOrder) (flipped bool) {
	t.Helper()
	var alg ArenaPartitioner = FirstFitRTA{Order: order}
	policy := OnlineRTAFirstFit
	if worst {
		alg, policy = WorstFitRTA{Order: order}, OnlineRTAWorstFit
	}
	res := alg.Partition(ts, m)
	sorted := res.Assignment.Set
	batchProc := make([]int, len(sorted))
	for i := range batchProc {
		batchProc[i] = -1
	}
	for q, list := range res.Assignment.Procs {
		for _, s := range list {
			batchProc[s.TaskIndex] = q
		}
	}
	distinct := true
	for i := 1; i < len(sorted); i++ {
		distinct = distinct && sorted[i].Deadline() != sorted[i-1].Deadline()
	}

	o, err := NewOnline(m, policy, 0)
	if err != nil {
		t.Fatal(err)
	}
	failed := -1
	for _, i := range new(Arena).taskOrder(sorted, order) {
		p, err := o.Admit(sorted[i])
		if err != nil {
			failed = i
			break
		}
		if p.Proc != batchProc[i] {
			if batchProc[i] >= 0 && worst && !distinct {
				return true // a worst-fit tie flipped; the packings part here
			}
			t.Fatalf("%s on %v, M=%d: τ%d placed on P%d online, P%d in batch (-1: refused)",
				alg.Name(), sorted, m, i, p.Proc, batchProc[i])
		}
	}
	if res.OK != (failed == -1) || res.FailedTask != failed {
		t.Fatalf("%s on %v, M=%d: batch OK=%v failed τ%d, online failed τ%d",
			alg.Name(), sorted, m, res.OK, res.FailedTask, failed)
	}
	return false
}

// TestOnlineBatchTwinWorstFitTie pins why the twin check stops at a
// worst-fit tie flip. In increasing-priority order, after τ8 both P0
// (14 + 178 + 42 over 490, summed as three terms) and P2 (234/490) hold
// utilization 234/490 exactly; the batch's float sum puts P2 first, the
// engine's puts P0 first, so τ7 lands on different processors, and the
// batch later refuses τ6 first while the engine refuses τ5. If the flip
// ever stops happening because the two sum in the same order, the
// worst-fit restriction can go.
func TestOnlineBatchTwinWorstFitTie(t *testing.T) {
	ts := task.Set{
		{C: 14, T: 70}, {C: 19, T: 70}, {C: 27, T: 70},
		{C: 67, T: 140}, {C: 13, T: 140}, {C: 60, T: 140}, {C: 61, T: 140},
		{C: 103, T: 350}, {C: 30, T: 350},
		{C: 110, T: 490}, {C: 188, T: 490}, {C: 178, T: 490}, {C: 120, T: 490},
		{C: 234, T: 490}, {C: 178, T: 490}, {C: 14, T: 490},
	}
	if !checkOnlineBatchTwin(t, ts, 4, true, IncreasingPriority) {
		t.Error("worst fit did not flip the P0/P2 tie")
	}
	for _, order := range []FitOrder{DecreasingUtilization, IncreasingPriority, DecreasingPriority} {
		checkOnlineBatchTwin(t, ts, 4, false, order)
	}
}

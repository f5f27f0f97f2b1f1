package partition

import (
	"testing"

	"repro/internal/rta"
	"repro/internal/task"
)

// FuzzPrefilterSound checks the prefilter's soundness claim as a property:
// whenever the closed-form density test admits a candidate, the exact
// scalar RTA must find the surcharged post-insert processor schedulable —
// for the candidate's own period and for the tightest period t = d, so for
// every t ≥ d. The first byte picks the surcharge (0–2), the second a shared
// left shift that scales every magnitude up to ~2^43, inside the model's
// domain (task.MaxTime); each following 4-byte
// group is one subtask (priority selector, period, execution share,
// deadline share) with a constrained deadline C ≤ d ≤ T. Priorities come
// from the selector, not the deadlines, so post-insert orders are often not
// deadline-monotonic and the test must refuse them. Every group is first
// probed as a candidate; groups whose selector's bit 2 is clear are then
// mirrored as residents whatever the verdict, so the states need not be
// schedulable.
func FuzzPrefilterSound(f *testing.F) {
	f.Add([]byte{0, 0, 0, 40, 3, 200, 2, 80, 7, 255, 4, 33, 2, 100})
	f.Add([]byte{2, 40, 1, 200, 250, 3, 3, 255, 9, 255, 0, 10, 1, 0})
	f.Add([]byte{1, 12, 6, 10, 1, 0, 2, 2, 2, 2, 0, 90, 11, 4, 8, 7, 3, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		s := task.Time(data[0] % 3)
		shift := uint(data[1] % 34)
		data = data[2:]
		if len(data) > 64 {
			data = data[:64]
		}
		ps := &rta.ProcState{Surcharge: s}
		var list []task.Subtask // the mirrored residents, raw C, priority order
		for len(data) >= 4 {
			sel, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			T := task.Time(16+4*int(b1)) << shift
			c := T * task.Time(b2) / 2048
			if c < 1 {
				c = 1
			}
			d := c + (T-c)*task.Time(b3)/255
			prio := int(sel >> 3)
			if prefilterAdmit(ps, prio, c, d) {
				for _, period := range []task.Time{T, d} {
					post := make([]task.Subtask, 0, len(list)+1)
					for _, sub := range list {
						sub.C += s
						post = append(post, sub)
					}
					cand := task.Subtask{TaskIndex: prio, Part: 1, C: c + s, T: period, Deadline: d, Tail: true}
					post = insertSubtask(post, ps.PosFor(prio), cand)
					if !rta.ProcessorSchedulable(post) {
						t.Fatalf("prefilter admitted prio=%d c=%d d=%d (t=%d, surcharge %d) but exact RTA rejects %v",
							prio, c, d, period, s, post)
					}
				}
			}
			if sel&4 == 0 {
				sub := task.Subtask{TaskIndex: prio, Part: 1, C: c, T: T, Deadline: d, Tail: true}
				list = insertSubtask(list, ps.Insert(sub), sub)
			}
		}
	})
}

func insertSubtask(list []task.Subtask, pos int, s task.Subtask) []task.Subtask {
	list = append(list, task.Subtask{})
	copy(list[pos+1:], list[pos:])
	list[pos] = s
	return list
}

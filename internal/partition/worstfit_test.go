package partition

import (
	"testing"

	"repro/internal/task"
)

// minUtilProcessor is the scan the worst-fit tree replaced, kept as its
// oracle: the processor with the smallest assigned utilization among those
// with eligible[q] && !full[q] (nil eligible: all), ties to the lowest
// index, or -1.
func minUtilProcessor(asg *task.Assignment, eligible, full []bool) int {
	best := -1
	bestU := 0.0
	for q := range asg.Procs {
		if (eligible != nil && !eligible[q]) || full[q] {
			continue
		}
		u := asg.Utilization(q)
		if best == -1 || u < bestU {
			best, bestU = q, u
		}
	}
	return best
}

// replayWorstFit drives the arena's worst-fit tree and the scan through
// one decoded sequence and fails at the first pick they disagree on. The
// first byte gives m (1–17), the next m bytes the eligibility mask (bit 0)
// and the pre-loaded utilization (bits 1–3, so placements start from
// unequal processors), and every following byte pair one step: which
// processor takes the load (the pick, or any processor for an update off
// the pick), the load's C/T from a small palette that produces exact float
// ties, and whether that processor becomes full. Ineligible processors take
// load too, as RM-TS phase 3 does.
func replayWorstFit(t *testing.T, ar *Arena, data []byte) {
	if len(data) == 0 {
		return
	}
	m := 1 + int(data[0])%17
	data = data[1:]
	ts := make(task.Set, 64)
	for i := range ts {
		ts[i] = task.Task{C: 1, T: 2}
	}
	var asg task.Assignment
	asg.Reset(ts, m)
	eligible := make([]bool, m)
	full := make([]bool, m)
	palette := []task.Task{{C: 1, T: 2}, {C: 1, T: 4}, {C: 2, T: 8}, {C: 1, T: 3}, {C: 1, T: 6}, {C: 3, T: 10}}
	idx := 0
	add := func(q int, b byte) {
		p := palette[int(b)%len(palette)]
		asg.Add(q, task.Subtask{TaskIndex: idx % len(ts), Part: 1, C: p.C, T: p.T, Deadline: p.T, Tail: true})
		idx++
	}
	for q := 0; q < m; q++ {
		var b byte
		if q < len(data) {
			b = data[q]
		}
		eligible[q] = b&1 == 1
		for k := 0; k < int(b>>1)&7; k++ {
			add(q, b>>4)
		}
	}
	if len(data) > m {
		data = data[m:]
	} else {
		data = nil
	}
	allEligible := m%2 == 0
	var elig []bool
	if !allEligible {
		elig = eligible
	}
	wf := ar.worstFit(&asg, elig, full)
	for step := 0; ; step++ {
		want := minUtilProcessor(&asg, elig, full)
		if got := wf.pick(); got != want {
			t.Fatalf("step %d (m=%d): tree picks %d, scan picks %d", step, m, got, want)
		}
		if len(data) < 2 || want < 0 {
			return
		}
		op, arg := data[0], data[1]
		data = data[2:]
		q := want
		if op&1 == 1 {
			q = int(op>>1) % m
		}
		add(q, arg)
		if arg&0x80 != 0 {
			full[q] = true
		}
		if elig == nil || elig[q] {
			wf.update(q, asg.Utilization(q), !full[q])
		}
	}
}

// FuzzWorstFitTree pins the worst-fit tree against the scan it replaced
// over random add, full and eligibility sequences, on one reused arena.
func FuzzWorstFitTree(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 0xff, 0x13, 0x21, 1, 3, 5, 7, 9, 2, 0x80, 3, 4, 5, 6, 0, 0, 0, 1})
	f.Add([]byte{16, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0})
	ar := new(Arena)
	f.Fuzz(func(t *testing.T, data []byte) {
		replayWorstFit(t, ar, data)
	})
}

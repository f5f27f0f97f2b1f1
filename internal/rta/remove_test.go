package rta

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/task"
)

// Removal-equivalence tests: any interleaving of admits and removals must
// leave the warm mirror observationally identical to from-scratch RTA on the
// surviving residents — same admission verdicts, same response times. This
// is the soundness contract of ProcState.Remove's cache invalidation (keep
// exact fixed points above the removed position, drop the now-stale upper
// bounds at and below it). A bug here surfaces either as a verdict mismatch
// or as iterate's "iteration decreased" panic when a stale value is used as
// a warm start.

func surchargedView(list []task.Subtask, s task.Time) []task.Subtask {
	sur := make([]task.Subtask, len(list))
	for i, sub := range list {
		sub.C += s
		sur[i] = sub
	}
	return sur
}

func insertSub(list []task.Subtask, pos int, s task.Subtask) []task.Subtask {
	list = append(list, task.Subtask{})
	copy(list[pos+1:], list[pos:])
	list[pos] = s
	return list
}

// checkColdEquivalence compares every resident's warm-path response time
// (committing it back to the cache, as the admission service does) against
// from-scratch analysis of the surviving surcharged set.
func checkColdEquivalence(t *testing.T, ps *ProcState, list []task.Subtask, s task.Time, ctx string) {
	t.Helper()
	if ps.Len() != len(list) {
		t.Fatalf("%s: mirror holds %d residents, model %d", ctx, ps.Len(), len(list))
	}
	sur := surchargedView(list, s)
	for i := range sur {
		if ps.TaskAt(i) != sur[i].TaskIndex || ps.OwnC(i) != sur[i].C || ps.Deadline(i) != sur[i].Deadline {
			t.Fatalf("%s: resident %d mirror (%d,%d,%d) model (%d,%d,%d)", ctx, i,
				ps.TaskAt(i), ps.OwnC(i), ps.Deadline(i), sur[i].TaskIndex, sur[i].C, sur[i].Deadline)
		}
		rw, okw := ps.ResponseAt(i, ps.Deadline(i))
		rc, okc := SubtaskResponse(sur, i)
		if rw != rc || okw != okc {
			t.Fatalf("%s: resident %d warm response (%d,%v), from-scratch (%d,%v) [set=%v s=%d]",
				ctx, i, rw, okw, rc, okc, list, s)
		}
	}
}

// stepChurn performs one random admit-or-remove step against both the warm
// mirror and the explicit model list, checking the admission verdict against
// SchedulableWithExtraAt on the surcharged surviving set.
func stepChurn(t *testing.T, r *rand.Rand, ps *ProcState, list []task.Subtask, next *int, ctx string) []task.Subtask {
	t.Helper()
	if len(list) > 0 && r.Intn(3) == 0 {
		pos := r.Intn(len(list))
		ps.Remove(pos)
		return append(list[:pos], list[pos+1:]...)
	}
	prio := *next
	if len(list) > 0 && r.Intn(5) == 0 {
		prio = list[r.Intn(len(list))].TaskIndex // duplicate key: FIFO tie-break
	}
	*next += 1 + r.Intn(3)
	T := task.Time(20 + r.Intn(2000))
	c := task.Time(1 + r.Intn(int(T)/3+1))
	d := T - task.Time(r.Intn(int(T)/3+1))
	if d < c {
		d = c
	}
	want := SchedulableWithExtraAt(surchargedView(list, ps.Surcharge), prio, c+ps.Surcharge, T, d)
	got := ps.AdmitAt(prio, c, T, d)
	if got != want {
		t.Fatalf("%s: AdmitAt(%d,%d,%d,%d)=%v, from-scratch=%v [set=%v s=%d]",
			ctx, prio, c, T, d, got, want, list, ps.Surcharge)
	}
	if got {
		sub := task.Subtask{TaskIndex: prio, Part: 1, C: c, T: T, Deadline: d, Tail: true}
		pos := ps.Insert(sub)
		return insertSub(list, pos, sub)
	}
	return list
}

// TestRemoveMatchesFromScratch drives random insert/remove interleavings
// (with and without an analysis surcharge) and after every operation checks
// the full cold-equivalence contract on the surviving set.
func TestRemoveMatchesFromScratch(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		s := task.Time(r.Intn(3))
		ps := &ProcState{Surcharge: s}
		var list []task.Subtask
		next := 0
		for op := 0; op < 25; op++ {
			ctx := fmt.Sprintf("trial %d op %d", trial, op)
			list = stepChurn(t, r, ps, list, &next, ctx)
			checkColdEquivalence(t, ps, list, s, ctx)
		}
	}
}

// FuzzProcStateRemove interprets the fuzz input as an op stream — each
// 4-byte group is either a removal (odd selector) or an admission attempt
// with derived parameters — and checks cold equivalence after every op.
func FuzzProcStateRemove(f *testing.F) {
	f.Add([]byte{0, 40, 3, 5, 0, 80, 7, 9, 1, 0, 0, 0, 0, 40, 3, 5})
	f.Add([]byte{0, 10, 200, 0, 2, 10, 200, 0, 1, 1, 0, 0, 3, 255, 255, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 200 {
			data = data[:200]
		}
		s := task.Time(len(data) % 3)
		ps := &ProcState{Surcharge: s}
		var list []task.Subtask
		next := 0
		for op := 0; len(data) >= 4; op++ {
			sel, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			ctx := fmt.Sprintf("op %d", op)
			if sel%2 == 1 {
				if len(list) == 0 {
					continue
				}
				pos := int(b1) % len(list)
				ps.Remove(pos)
				list = append(list[:pos], list[pos+1:]...)
			} else {
				prio := next
				if sel%4 == 2 && len(list) > 0 {
					prio = list[int(b1)%len(list)].TaskIndex
				}
				next += 2
				T := task.Time(20 + int(b1)*8)
				c := task.Time(1 + int(b2)%(int(T)/3+1))
				d := T - task.Time(int(b3)%(int(T)/3+1))
				if d < c {
					d = c
				}
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
			}
			checkColdEquivalence(t, ps, list, s, ctx)
		}
	})
}

// TestRemoveInvalidatesAtAndBelow pins the invalidation boundary directly:
// cached responses above the removed position survive exactly, entries at
// and below drop to "unknown".
func TestRemoveInvalidatesAtAndBelow(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(6)
		list := randomResidents(r, n)
		ps := mirror(list, task.Time(r.Intn(2)))
		for i := 0; i < n; i++ {
			ps.ResponseAt(i, ps.Deadline(i)) // populate the cache
		}
		saved := append([]task.Time(nil), ps.b.resp...)
		pos := r.Intn(n)
		ps.Remove(pos)
		if ps.Len() != n-1 {
			t.Fatalf("trial %d: Len=%d after removing from %d", trial, ps.Len(), n)
		}
		for i := 0; i < pos; i++ {
			if ps.b.resp[i] != saved[i] {
				t.Fatalf("trial %d: resident %d above removal lost its cache (%d -> %d)",
					trial, i, saved[i], ps.b.resp[i])
			}
		}
		for i := pos; i < ps.Len(); i++ {
			if ps.b.resp[i] != 0 {
				t.Fatalf("trial %d: resident %d at/below removal kept stale cache %d",
					trial, i, ps.b.resp[i])
			}
		}
	}
}

func TestRemoveOutOfRangePanics(t *testing.T) {
	ps := mirror(randomResidents(rand.New(rand.NewSource(23)), 3), 0)
	for _, pos := range []int{-1, 3, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Remove(%d) on a 3-resident state did not panic", pos)
				}
			}()
			ps.Remove(pos)
		}()
	}
}

// TestRemoveGoldenSequence replays a fixed admit→remove→re-admit script
// and pins the full transcript to a recorded literal (guarding drift across
// toolchains and refactors); the responses in it are the from-scratch ones.
func TestRemoveGoldenSequence(t *testing.T) {
	type op struct {
		remove   bool
		pos      int
		prio     int
		c, tt, d task.Time
	}
	script := []op{
		{prio: 2, c: 2, tt: 10, d: 10},
		{prio: 4, c: 3, tt: 15, d: 14},
		{prio: 6, c: 4, tt: 20, d: 20},
		{remove: true, pos: 1},
		{prio: 4, c: 5, tt: 15, d: 14},
		{prio: 1, c: 9, tt: 12, d: 12}, // rejected: resident idx 2 misses
		{remove: true, pos: 0},
		{prio: 1, c: 9, tt: 12, d: 12}, // still rejected: idx 4 misses
		{prio: 1, c: 3, tt: 12, d: 12},
	}
	ps := &ProcState{}
	var sb strings.Builder
	for _, o := range script {
		if o.remove {
			fmt.Fprintf(&sb, "remove pos=%d\n", o.pos)
			ps.Remove(o.pos)
		} else {
			ok := ps.AdmitAt(o.prio, o.c, o.tt, o.d)
			fmt.Fprintf(&sb, "admit idx=%d c=%d t=%d d=%d -> %v\n", o.prio, o.c, o.tt, o.d, ok)
			if ok {
				ps.Insert(task.Subtask{TaskIndex: o.prio, Part: 1, C: o.c, T: o.tt, Deadline: o.d, Tail: true})
			}
		}
		sb.WriteString("  state:")
		for i := 0; i < ps.Len(); i++ {
			r, rok := ps.ResponseAt(i, ps.Deadline(i))
			fmt.Fprintf(&sb, " %d:r=%d/%v", ps.TaskAt(i), r, rok)
		}
		sb.WriteString("\n")
	}
	got := sb.String()
	const golden = "" +
		"admit idx=2 c=2 t=10 d=10 -> true\n" +
		"  state: 2:r=2/true\n" +
		"admit idx=4 c=3 t=15 d=14 -> true\n" +
		"  state: 2:r=2/true 4:r=5/true\n" +
		"admit idx=6 c=4 t=20 d=20 -> true\n" +
		"  state: 2:r=2/true 4:r=5/true 6:r=9/true\n" +
		"remove pos=1\n" +
		"  state: 2:r=2/true 6:r=6/true\n" +
		"admit idx=4 c=5 t=15 d=14 -> true\n" +
		"  state: 2:r=2/true 4:r=7/true 6:r=13/true\n" +
		"admit idx=1 c=9 t=12 d=12 -> false\n" +
		"  state: 2:r=2/true 4:r=7/true 6:r=13/true\n" +
		"remove pos=0\n" +
		"  state: 4:r=5/true 6:r=9/true\n" +
		"admit idx=1 c=9 t=12 d=12 -> false\n" +
		"  state: 4:r=5/true 6:r=9/true\n" +
		"admit idx=1 c=3 t=12 d=12 -> true\n" +
		"  state: 1:r=3/true 4:r=8/true 6:r=12/true\n"
	if got != golden {
		t.Errorf("transcript drifted from golden:\n--- want\n%s--- got\n%s", golden, got)
	}
}

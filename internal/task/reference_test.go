package task

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// subtasksReference is the per-task rescan Assignment.Subtasks performed
// before FragmentIndex replaced it, kept verbatim as the index's oracle: it
// scans every processor for task idx and sorts the hits by part.
func subtasksReference(a *Assignment, idx int) (subs []Subtask, procs []int) {
	type frag struct {
		s Subtask
		q int
	}
	var frags []frag
	for q, list := range a.Procs {
		for _, s := range list {
			if s.TaskIndex == idx {
				frags = append(frags, frag{s, q})
			}
		}
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].s.Part < frags[j].s.Part })
	for _, f := range frags {
		subs = append(subs, f.s)
		procs = append(procs, f.q)
	}
	return subs, procs
}

// validateReference is Assignment.Validate as it was before it used the
// fragment index, kept verbatim (on subtasksReference and a per-task seen
// map) as the oracle of FuzzValidateVsReference.
func validateReference(a *Assignment) error {
	for q, list := range a.Procs {
		for i, s := range list {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("processor %d: %w", q, err)
			}
			if i > 0 && list[i-1].TaskIndex >= s.TaskIndex {
				return fmt.Errorf("processor %d: subtasks out of priority order at position %d", q, i)
			}
			if s.TaskIndex >= len(a.Set) {
				return fmt.Errorf("processor %d: subtask refers to unknown task %d", q, s.TaskIndex)
			}
		}
	}
	for idx, t := range a.Set {
		subs, procs := subtasksReference(a, idx)
		if len(subs) == 0 {
			return fmt.Errorf("task %d (%s) is not assigned to any processor", idx, t)
		}
		seen := map[int]bool{}
		base := t.T - t.Deadline() // 0 for implicit deadlines
		sumC := Time(0)
		minOffset := base
		prevOffset := Time(0)
		for k, s := range subs {
			if s.Part != k+1 {
				return fmt.Errorf("task %d: fragment parts are not contiguous (got part %d at position %d)", idx, s.Part, k)
			}
			if seen[procs[k]] {
				return fmt.Errorf("task %d: two fragments share processor %d", idx, procs[k])
			}
			seen[procs[k]] = true
			if s.T != t.T {
				return fmt.Errorf("task %d: fragment period %d differs from task period %d", idx, s.T, t.T)
			}
			if k == 0 && s.Offset != base {
				return fmt.Errorf("task %d: first fragment offset %d, want T−D = %d", idx, s.Offset, base)
			}
			if s.Offset < minOffset {
				return fmt.Errorf("task %d part %d: offset %d is below the cumulative execution %d of prior fragments", idx, s.Part, s.Offset, minOffset)
			}
			if k > 0 && s.Offset <= prevOffset {
				return fmt.Errorf("task %d part %d: offset %d does not increase past predecessor's %d", idx, s.Part, s.Offset, prevOffset)
			}
			if s.Deadline > t.T-s.Offset {
				return fmt.Errorf("task %d part %d: synthetic deadline %d exceeds chain budget T−offset = %d", idx, s.Part, s.Deadline, t.T-s.Offset)
			}
			wantTail := k == len(subs)-1
			if s.Tail != wantTail {
				return fmt.Errorf("task %d part %d: tail flag %v, want %v", idx, s.Part, s.Tail, wantTail)
			}
			sumC += s.C
			minOffset += s.C
			prevOffset = s.Offset
		}
		if sumC != t.C {
			return fmt.Errorf("task %d: fragment execution times sum to %d, want %d", idx, sumC, t.C)
		}
	}
	return nil
}

// decodeAssignment builds a valid split assignment from data, then
// corrupts it. The first byte picks M (1–8, so a task has at most 8
// fragments once the priority-order check passes) and the task count
// (1–4); each task takes 4 bytes (period, execution share, deadline share,
// fragment count and first processor). The rest are mutations of 4 bytes
// each: a processor, a position in its list, a field to change and a
// signed delta, so decoded cases straddle every Validate refusal.
func decodeAssignment(data []byte) *Assignment {
	if len(data) < 1 {
		return nil
	}
	m, n := 1+int(data[0]%8), 1+int(data[0]/8%4)
	data = data[1:]
	if len(data) < 4*n {
		return nil
	}
	set := make(Set, n)
	for i := range set {
		T := Time(8 + int(data[4*i])%60)
		c := max(T*Time(data[4*i+1])/256, 1)
		set[i] = Task{Name: fmt.Sprintf("t%d", i), C: c, T: T, D: c + (T-c)*Time(data[4*i+2])/255}
	}
	set.SortDM()
	a := NewAssignment(set, m)
	for i, t := range set {
		b := data[4*i+3]
		k := min(1+int(b%4), m, int(t.C))
		q := int(b/4) % m
		offset := t.T - t.Deadline()
		left := t.C
		for part := 1; part <= k; part++ {
			c := left / Time(k-part+1)
			left -= c
			a.Add((q+part-1)%m, Subtask{TaskIndex: i, Part: part, C: c, T: t.T,
				Deadline: t.T - offset, Offset: offset, Tail: part == k})
			offset += c
		}
	}
	for rest := data[4*n:]; len(rest) >= 4; rest = rest[4:] {
		list := a.Procs[int(rest[0])%m]
		if len(list) == 0 {
			continue
		}
		s := &list[int(rest[1])%len(list)]
		d := Time(int8(rest[3]))
		switch rest[2] % 8 {
		case 0:
			s.TaskIndex += int(d)
		case 1:
			s.Part += int(d)
		case 2:
			s.C += d
		case 3:
			s.T += d
		case 4:
			s.Deadline += d
		case 5:
			s.Offset += d
		case 6:
			s.Tail = !s.Tail
		case 7:
			// Move the subtask to the end of another processor's list.
			dst := int(uint8(d)) % m
			moved := *s
			src := int(rest[0]) % m
			pos := int(rest[1]) % len(list)
			a.Procs[src] = append(list[:pos:pos], list[pos+1:]...)
			a.Procs[dst] = append(a.Procs[dst], moved)
		}
	}
	return a
}

// checkValidateVsReference requires Validate to return exactly the
// reference's error, and on a valid assignment the index to list each
// task's fragments exactly as the reference rescan does.
func checkValidateVsReference(t *testing.T, a *Assignment) {
	t.Helper()
	var x FragmentIndex
	got, want := a.ValidateIndexed(&x), validateReference(a)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Validate = %v, reference %v\n%s", got, want, a)
	}
	if got != nil {
		return
	}
	for idx := range a.Set {
		subs, procs := subtasksReference(a, idx)
		frags := x.Of(idx)
		if len(frags) != len(subs) {
			t.Fatalf("task %d: %d indexed fragments, reference %d", idx, len(frags), len(subs))
		}
		for k, f := range frags {
			if !reflect.DeepEqual(f.Sub, subs[k]) || f.Proc != procs[k] || a.Procs[f.Proc][f.Pos] != f.Sub {
				t.Fatalf("task %d fragment %d: index %+v, reference %+v on P%d", idx, k, f, subs[k], procs[k])
			}
		}
	}
}

// FuzzValidateVsReference pins Validate on the fragment index to the
// rescan-and-sort Validate it replaced: identical errors, word for word,
// and on valid assignments identical per-task fragment lists.
func FuzzValidateVsReference(f *testing.F) {
	f.Add([]byte{0x09, 20, 200, 255, 5, 30, 100, 128, 0})
	f.Add([]byte{0x1b, 20, 200, 255, 6, 30, 100, 128, 1, 50, 30, 0, 9, 0, 0, 1, 1})
	f.Add([]byte{0x1b, 20, 200, 255, 6, 30, 100, 128, 1, 50, 30, 0, 9, 1, 0, 7, 2})
	f.Add([]byte{0x12, 40, 250, 255, 3, 40, 250, 255, 2, 1, 0, 5, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if a := decodeAssignment(data); a != nil {
			checkValidateVsReference(t, a)
		}
	})
}

func TestValidateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	valid := 0
	for i := 0; i < 5000; i++ {
		data := make([]byte, 1+4*4+4*r.Intn(3))
		r.Read(data)
		a := decodeAssignment(data)
		if a == nil {
			continue
		}
		checkValidateVsReference(t, a)
		if a.Validate() == nil {
			valid++
		}
	}
	if valid < 500 {
		t.Errorf("only %d of 5000 decoded assignments are valid: the oracle check is mostly refusals", valid)
	}
}

func TestFragmentIndexReusesBuffers(t *testing.T) {
	a := decodeAssignment([]byte{0x13, 20, 200, 255, 6, 30, 100, 128, 1, 50, 30, 0, 9})
	var x FragmentIndex
	x.Build(a)
	if allocs := testing.AllocsPerRun(10, func() { x.Build(a) }); allocs != 0 {
		t.Errorf("rebuilding a grown index allocates %v times", allocs)
	}
}

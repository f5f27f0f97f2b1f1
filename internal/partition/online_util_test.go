package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/task"
)

// TestOnlineVerdictDigest pins every decision the online engine makes on a
// long seeded churn at the capacity edge: M = 32, log-uniform periods in
// [100, 10000], utilizations in [0.02, 0.22], one constrained deadline in
// five, a removal after each rejection and whenever the population reaches
// 300. The SHA-256 covers each op's (accepted, handle, proc, response,
// cause) and the bits of every processor's Utilization after each op, so
// any change to placement, handles, verdicts or the reported loads — down
// to the last bit of a float sum — changes the digest. The committed values
// were computed before the engine learned to refuse over-full processors
// without RTA; that shortcut must not move them.
func TestOnlineVerdictDigest(t *testing.T) {
	want := map[string]string{
		OnlineRTAFirstFit: "8dbc02b756bf77da7e8eb7a5cb4de0d573bbcf2cadb6386d88e4f32cf12e0180",
		OnlineRTAWorstFit: "7975f688cfdba0ec6d1ec94e5d4abde633534b2ed6b95e744a141d7bd7edadf3",
	}
	for _, policy := range []string{OnlineRTAFirstFit, OnlineRTAWorstFit} {
		t.Run(policy, func(t *testing.T) {
			if got := onlineChurnDigest(t, policy, 20000); got != want[policy] {
				t.Errorf("verdict digest = %s, want %s", got, want[policy])
			}
		})
	}
}

func onlineChurnDigest(t *testing.T, policy string, ops int) string {
	const m, target = 32, 300
	o, err := NewOnline(m, policy, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	h := sha256.New()
	var rec []byte
	var live []uint64
	evict := false
	for i := 0; i < ops; i++ {
		rec = rec[:0]
		if evict || len(live) >= target {
			evict = false
			k := r.Intn(len(live))
			if !o.Remove(live[k]) {
				t.Fatalf("op %d: Remove(%d) missed a live handle", i, live[k])
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			rec = append(rec, 'r')
		} else {
			period := math.Exp(math.Log(100) + r.Float64()*(math.Log(10000)-math.Log(100)))
			tt := int64(math.Round(period))
			c := max(int64(math.Round((0.02+r.Float64()*0.20)*float64(tt))), 1)
			var d int64
			if r.Intn(5) == 0 {
				d = c + r.Int63n(tt-c)
			}
			pl, err := o.Admit(task.Task{C: c, T: tt, D: d})
			var rej *Rejection
			switch {
			case err == nil:
				live = append(live, pl.Handle)
				rec = append(rec, 'a')
			case errors.As(err, &rej):
				evict = len(live) > 0
				rec = append(rec, 'x')
				rec = append(rec, rej.Cause.String()...)
			default:
				t.Fatalf("op %d: untyped error %v", i, err)
			}
			rec = binary.AppendUvarint(rec, pl.Handle)
			rec = binary.AppendVarint(rec, int64(pl.Proc))
			rec = binary.AppendVarint(rec, pl.Response)
		}
		for q := 0; q < m; q++ {
			rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(o.Utilization(q)))
		}
		h.Write(rec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzUtilSkipSound checks the engine's utilization refusal as a property.
// After every step of a fuzz-decoded admit/remove/RestoreResident/UndoAdmit
// sequence, each processor's cached Utilization must equal a fresh
// priority-order sum of its residents bit for bit. Before each admission,
// every processor OverUtilized holds for must fail the scalar
// rta.ProcessorSchedulable on its surcharged post-insert list, so refusing
// it without RTA never changes a verdict. The first byte picks the
// surcharge (0–3), the second the policy and M (1–4), the third a shared
// left shift that scales every magnitude up to ~2^40; each following
// 5-byte group is one op (kind, period, execution share, deadline share,
// processor or handle selector) with a constrained deadline C ≤ D ≤ T.
// Restores skip the admission test, so states may be over-full already.
func FuzzUtilSkipSound(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 40, 128, 255, 0, 0, 40, 128, 255, 0, 0, 40, 100, 255, 0})
	f.Add([]byte{3, 3, 30, 2, 10, 200, 100, 0, 2, 10, 200, 100, 1, 0, 90, 60, 200, 0, 3, 0, 0, 0, 0, 1, 0, 0, 0, 1})
	f.Add([]byte{1, 7, 12, 0, 2, 60, 30, 0, 0, 7, 90, 255, 0, 0, 3, 250, 0, 0, 2, 5, 255, 255, 1, 0, 5, 100, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		s := task.Time(data[0] % 4)
		policy := OnlineRTAFirstFit
		if data[1]&1 == 1 {
			policy = OnlineRTAWorstFit
		}
		m := 1 + int(data[1]>>1%4)
		shift := uint(data[2] % 31)
		data = data[3:]
		if len(data) > 80 {
			data = data[:80]
		}
		o, err := NewOnline(m, policy, s)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; len(data) >= 5; step++ {
			kind, b1, b2, b3, sel := data[0]%4, data[1], data[2], data[3], data[4]
			data = data[5:]
			T := task.Time(16+4*int(b1)) << shift
			c := max(T*task.Time(b2)/256, 1)
			d := c + (T-c)*task.Time(b3)/255
			switch kind {
			case 0:
				cand := task.Task{C: c, T: T, D: d}
				for q := 0; q < m; q++ {
					if !OverUtilized(o.Utilization(q), cand.Utilization()) {
						continue
					}
					post := onlineSurView(o.Residents(q), s)
					pos := 0
					for pos < len(post) && post[pos].TaskIndex <= int(d) {
						pos++
					}
					sub := task.Subtask{TaskIndex: int(d), Part: 1, C: c + s, T: T, Deadline: d, Offset: T - d, Tail: true}
					post = insertSubtask(post, pos, sub)
					if rta.ProcessorSchedulable(post) {
						t.Fatalf("step %d: proc %d over-utilized (%v + %v) but exact RTA accepts %v",
							step, q, o.Utilization(q), cand.Utilization(), post)
					}
				}
				o.Admit(cand)
			case 1:
				o.Remove(uint64(sel)%(o.HandleSeq()+1) + 1)
			case 2:
				o.RestoreResident(int(sel)%m, o.HandleSeq()+1, c, T, d)
			case 3:
				o.UndoAdmit(o.HandleSeq())
			}
			for q := 0; q < m; q++ {
				fresh := 0.0
				for _, sub := range o.Residents(q) {
					fresh += float64(sub.C) / float64(sub.T)
				}
				if got := o.Utilization(q); math.Float64bits(got) != math.Float64bits(fresh) {
					t.Fatalf("step %d: proc %d cached utilization %v, fresh priority-order sum %v", step, q, got, fresh)
				}
			}
		}
	})
}

// TestOnlineUtilSkipsCounter pins partition.online.util_skips: one tick per
// processor an RTA admission refused by utilization alone.
func TestOnlineUtilSkipsCounter(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Reset()
	o, err := NewOnline(3, OnlineRTAFirstFit, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Each 0.6 task overfills every processor already holding one, so the
	// admissions skip 0, 1 and 2 processors and the rejection skips all 3.
	for i := 0; i < 4; i++ {
		o.Admit(task.Task{C: 6, T: 10})
	}
	if got := cOnlineUtilSkips.Value(); got != 0+1+2+3 {
		t.Errorf("util_skips = %d, want 6", got)
	}
}

package bounds

import (
	"math/big"
	"sort"
	"testing"

	"repro/internal/task"
)

// hanTyanFloat is the former HanTyanSchedulable, kept as the oracle of
// HanTyanScratch: sort.Slice over fresh period copies and a float sum per
// base. It differs from the integer test only where the float sum rounds
// across 1.
func hanTyanFloat(ts task.Set) bool {
	n := len(ts)
	if n == 0 {
		return true
	}
	periods := make([]task.Time, n)
	tmin := ts[0].T
	for i, t := range ts {
		if t.C <= 0 || t.T <= 0 || t.C > t.T {
			return false
		}
		periods[i] = t.T
		if t.T < tmin {
			tmin = t.T
		}
	}
	sort.Slice(periods, func(i, j int) bool { return periods[i] < periods[j] })
	for _, base := range periods {
		b := base
		for b > tmin {
			b /= 2
		}
		if b <= 0 {
			continue
		}
		u := 0.0
		for _, t := range ts {
			h := b
			for h <= t.T/2 {
				h *= 2
			}
			u += float64(t.C) / float64(h)
			if u > 1 {
				break
			}
		}
		if u <= 1 {
			return true
		}
	}
	return false
}

// hanTyanRat is the former implementation's folding with the sum kept as
// an exact rational: what HanTyanScratch must decide. near reports whether
// some base's folded utilization lies within 2^-40 of 1, where a float sum
// may round to the other side.
func hanTyanRat(ts task.Set) (fits, near bool) {
	if len(ts) == 0 {
		return true, false
	}
	tmin := ts[0].T
	for _, t := range ts {
		if t.C <= 0 || t.T <= 0 || t.C > t.T {
			return false, false
		}
		tmin = min(tmin, t.T)
	}
	one := big.NewRat(1, 1)
	eps := big.NewRat(1, 1<<40)
	for _, base := range ts {
		b := base.T
		for b > tmin {
			b /= 2
		}
		u := new(big.Rat)
		for _, t := range ts {
			h := b
			for h <= t.T/2 {
				h *= 2
			}
			u.Add(u, new(big.Rat).SetFrac(big.NewInt(int64(t.C)), big.NewInt(int64(h))))
		}
		fits = fits || u.Cmp(one) <= 0
		near = near || new(big.Rat).Sub(u, one).Abs(new(big.Rat).Sub(u, one)).Cmp(eps) <= 0
	}
	return fits, near
}

// htCorner is the float corner: U = 1 + 2^-60 on one processor, which a
// float sum rounds to 1. Exact RTA misses the second task by one tick.
var htCorner = task.Set{{C: 1 << 59, T: 1 << 60}, {C: 1<<59 + 1, T: 1 << 60}}

// htCornerSeed decodes to htCorner (FuzzHanTyanVsReference's corpus).
var htCornerSeed = []byte{33, 0, 0, 33, 0, 64}

func TestHanTyanFloatCornerRefused(t *testing.T) {
	if rmSchedulable(htCorner) {
		t.Fatal("the reproducer no longer misses under exact RTA")
	}
	if !hanTyanFloat(htCorner) {
		t.Fatal("the reproducer no longer fools the float sum")
	}
	if HanTyanSchedulable(htCorner) {
		t.Error("HanTyanSchedulable admits a set exact RTA refuses")
	}
	got := decodeHanTyanSet(htCornerSeed)
	for i := range got {
		got[i].Name = ""
	}
	if len(got) != len(htCorner) || got[0] != htCorner[0] || got[1] != htCorner[1] {
		t.Errorf("the corpus seed decodes to %v, want %v", got, htCorner)
	}
}

// decodeHanTyanSet builds a small task set aimed at the test's corners
// from fuzz bytes. Each task takes 3 bytes: a period class (1–256, near a
// power of two up to 2^60, a power of two up to 2^60, or another task's
// period times 1, 2 or 4), a period offset, and a C: T/2^k for k = 1–4,
// one tick more than that, or an arbitrary fraction of T.
func decodeHanTyanSet(data []byte) task.Set {
	var ts task.Set
	for len(data) >= 3 && len(ts) < 8 {
		class, off, frac := data[0], data[1], data[2]
		data = data[3:]
		var p task.Time
		switch class % 4 {
		case 0:
			p = 1 + task.Time(off)
		case 1:
			p = task.Time(1)<<(52+class/4%9) + task.Time(off)
		case 2:
			p = task.Time(1) << (30 + class/4%31)
		default:
			if len(ts) == 0 {
				p = 1000 + task.Time(off)
			} else {
				p = ts[int(off)%len(ts)].T << (class / 4 % 3)
			}
		}
		var c task.Time
		switch {
		case frac < 64:
			c = p >> (1 + frac%4)
		case frac < 128:
			c = p>>(1+frac%4) + 1
		default:
			c = 1 + task.Time(uint64(p-1)/255*uint64(frac-128)/128)
		}
		ts = append(ts, task.Task{Name: "h", C: max(c, 1), T: p})
	}
	return ts
}

// FuzzHanTyanVsReference pins HanTyanScratch, on a reused Scratch, to the
// exact-rational folding and to the former float implementation, which it
// may part from only where some folded utilization is within 2^-40 of 1.
func FuzzHanTyanVsReference(f *testing.F) {
	f.Add(htCornerSeed)
	f.Add([]byte{0, 3, 200, 0, 7, 150, 3, 0, 64})
	f.Add([]byte{2, 0, 1, 6, 0, 2, 10, 0, 3, 3, 1, 70})
	f.Add([]byte{0, 99, 255, 0, 98, 1, 0, 49, 128, 3, 2, 0})
	var sc Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := decodeHanTyanSet(data)
		cs := make([]task.Time, len(ts))
		ps := make([]task.Time, len(ts))
		for i, tk := range ts {
			cs[i], ps[i] = tk.C, tk.T
		}
		got := HanTyanScratch(cs, ps, &sc)
		exact, near := hanTyanRat(ts)
		if got != exact {
			t.Fatalf("HanTyanScratch = %v, exact folding = %v on %v", got, exact, ts)
		}
		if HanTyanSchedulable(ts) != got {
			t.Fatalf("HanTyanSchedulable and HanTyanScratch disagree on %v", ts)
		}
		if old := hanTyanFloat(ts); old != got && !near {
			t.Fatalf("float %v, integer %v on %v, far from the rounding corner", old, got, ts)
		}
		if got && len(ts) <= 4 && !rmSchedulable(ts) {
			t.Fatalf("Han–Tyan admits %v, which exact RTA refuses", ts)
		}
	})
}

package partition

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rta"
	"repro/internal/task"
)

// decodeThresholdSet builds a task set at the corner of a utilization
// threshold test. data[0] picks the family, data[1] the size n (2–6),
// data[2] the period scale, data[3] the task whose C is raised by one tick
// (bit 7 set: none), and the rest jitters the shape:
//
//   - 0: L&L's worst-case geometry, T_{i+1}/T_i ≈ 2^{1/n} and
//     C_i = T_{i+1} − T_i, at periods up to 2^40;
//   - 1: hyperbolic-tight sets, every U_i ≈ 2^{1/n} − 1 so Π(1+U_i) ≈ 2;
//   - 2: power-of-two harmonic chains filled to U = 1 exactly, with periods
//     up to 2^62, where Han–Tyan's U ≤ 1 is tight;
//   - 3: raw (C, T) pairs, 8 bytes each, big-endian (the reproducers).
//
// Every task is implicit-deadline with 1 ≤ C ≤ T; nil means no set.
func decodeThresholdSet(data []byte) task.Set {
	if len(data) < 4 {
		return nil
	}
	fam, n, scale, bump := data[0]%4, 2+int(data[1])%5, data[2], data[3]
	jit := data[4:]
	j := func(i int) byte {
		if len(jit) == 0 {
			return 0
		}
		return jit[i%len(jit)]
	}
	var ts task.Set
	switch fam {
	case 0:
		t1 := float64(uint64(1) << (4 + scale%37))
		periods := make([]task.Time, n)
		for i := range periods {
			periods[i] = task.Time(math.Round(t1 * math.Pow(2, float64(i)/float64(n))))
		}
		for i, p := range periods {
			c := 2*periods[0] - p
			if i+1 < n {
				c = periods[i+1] - p
			}
			ts = append(ts, task.Task{C: c, T: p})
		}
	case 1:
		u := math.Pow(2, 1/float64(n)) - 1
		base := float64(uint64(1) << (4 + scale%37))
		for i := 0; i < n; i++ {
			p := task.Time(base * (1 + float64(j(i))/256))
			c := task.Time(u * float64(p))
			if j(i)&1 == 1 {
				c = task.Time(math.Ceil(u * float64(p)))
			}
			ts = append(ts, task.Task{C: c, T: p})
		}
	case 2:
		top := 10 + int(scale)%53
		k := 0
		for i := 0; i < n; i++ {
			if k += int(j(i)) % 3; k >= top {
				k = top - 1
			}
			ts = append(ts, task.Task{T: task.Time(1) << (top - k)})
		}
		// Every period divides the smallest, so each C_i/T_i is an exact
		// multiple of 1/T_min: split T_min units of utilization among the
		// tasks, the last one taking the rest, for U = 1 exactly.
		tmin := ts[n-1].T
		left := tmin
		for i := range ts {
			share := left / task.Time(n-i)
			if i == n-1 {
				share = left
			}
			share = max(share, 1)
			left -= share
			ts[i].C = share * (ts[i].T / tmin)
		}
	default:
		for len(jit) >= 16 && len(ts) < 6 {
			c := task.Time(binary.BigEndian.Uint64(jit) >> 2)
			t := task.Time(binary.BigEndian.Uint64(jit[8:]) >> 2)
			jit = jit[16:]
			ts = append(ts, task.Task{C: c, T: t})
		}
	}
	if bump&0x80 == 0 && len(ts) > 0 {
		ts[int(bump)%len(ts)].C++
	}
	for i := range ts {
		ts[i].Name = "x"
		if ts[i].C < 1 || ts[i].T < 1 || ts[i].C > ts[i].T {
			return nil
		}
	}
	return ts
}

// encodeRawSet is decodeThresholdSet's family 3 encoding of ts (no bump).
func encodeRawSet(ts task.Set) []byte {
	out := []byte{3, 0, 0, 0x80}
	for _, t := range ts {
		out = binary.BigEndian.AppendUint64(out, uint64(t.C)<<2)
		out = binary.BigEndian.AppendUint64(out, uint64(t.T)<<2)
	}
	return out
}

// FuzzThresholdSound checks every utilization-threshold admission against
// exact RTA at the threshold's corner: each processor that P-RM-FF under
// LL, HB or HT, or the online engine's threshold policy, accepts must pass
// rta.ProcessorSchedulable. The corpus holds the L&L reproducer (U − Θ(2)
// ≈ 7.1·10⁻¹¹) and the Han–Tyan float corner (U = 1 + 2^-60).
func FuzzThresholdSound(f *testing.F) {
	f.Add(encodeRawSet(llCorner))
	f.Add(encodeRawSet(task.Set{{C: 1 << 59, T: 1 << 60}, {C: 1<<59 + 1, T: 1 << 60}}))
	f.Add([]byte{0, 0, 36, 1})
	f.Add([]byte{0, 3, 20, 0x80})
	f.Add([]byte{1, 2, 30, 4, 1, 77, 200, 3})
	f.Add([]byte{2, 1, 50, 1, 1, 2, 0})
	f.Add([]byte{2, 4, 52, 5, 2, 2, 1, 1, 2})
	ar := new(Arena)
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := decodeThresholdSet(data)
		if ts == nil {
			return
		}
		m := 1 + len(data)%2
		for _, adm := range []Admission{AdmitLL, AdmitHyperbolic, AdmitHanTyan} {
			res := FirstFit{Admission: adm}.PartitionArena(ts, m, ar)
			if !res.OK {
				continue
			}
			for q, list := range res.Assignment.Procs {
				if !rta.ProcessorSchedulable(list) {
					t.Fatalf("P-RM-FF[%v] accepts processor %d of %v, which exact RTA refuses", adm, q, ts)
				}
			}
		}
		s := task.Time(len(data) % 3 / 2)
		on, err := NewOnline(m, OnlineThreshold, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range ts {
			if _, err := on.Admit(tk); err != nil {
				continue
			}
			for q := 0; q < m; q++ {
				list := on.Residents(q)
				for i := range list {
					list[i].C += s
				}
				if !rta.ProcessorSchedulable(list) {
					t.Fatalf("the online threshold policy (surcharge %d) accepts processor %d of %v, which exact RTA refuses", s, q, list)
				}
			}
		}
	})
}

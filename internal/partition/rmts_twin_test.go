package partition

import (
	"fmt"
	"testing"

	"repro/internal/bounds"
	"repro/internal/task"
)

// twinFingerprint renders every Result field RM-TS and its light twin must
// share: resultFingerprint plus the cause and the sorted set.
func twinFingerprint(res *Result) string {
	s := resultFingerprint(res) + fmt.Sprintf("cause=%v\n", res.Cause)
	if res.Assignment != nil {
		s += fmt.Sprintf("set=%v\n", res.Assignment.Set)
	}
	return s
}

// FuzzRMTSLightTwin pins RMTS.LightTwin against the two partitioners it
// relates. Sets draw U_i up to 0.95, so both branches occur, with implicit
// or constrained deadlines, a surcharge of 0–3 and every registered PUB.
// Whenever LightTwin holds, RM-TS and the returned RM-TS/light produce
// field-equal results, per-processor subtask lists included. Whenever RM-TS
// pre-assigns nothing the two are equal as well, so LightTwin is
// conservative, never wrong.
func FuzzRMTSLightTwin(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 10, 80, 0, 40, 100, 0, 90, 60, 0, 200, 30, 0})
	f.Add([]byte{1, 2, 4, 1, 12, 250, 128, 30, 90, 200, 60, 40, 10, 5, 100, 255})
	f.Add([]byte{2, 1, 1, 0, 0, 255, 0, 0, 255, 0, 255, 110, 0, 1, 20, 0})
	f.Add([]byte{5, 3, 2, 1, 40, 100, 50, 80, 90, 70, 120, 110, 90, 160, 100, 110, 200, 80, 130})
	names := bounds.Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m := 1 + int(data[0]%6)
		s := task.Time(data[1] % 4)
		pub, err := bounds.Lookup(names[int(data[2])%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		constrained := data[3]&1 == 1
		data = data[4:]
		if len(data) > 3*24 {
			data = data[:3*24]
		}
		var ts task.Set
		for ; len(data) >= 3; data = data[3:] {
			T := task.Time(10 + 7*int(data[0]))
			c := max(task.Time(0.95*float64(data[1])/255*float64(T)), 1)
			tk := task.Task{C: c, T: T}
			if constrained {
				tk.D = c + (T-c)*task.Time(data[2])/255
			}
			ts = append(ts, tk)
		}
		if len(ts) == 0 {
			return
		}
		rm := &RMTS{PUB: pub, Surcharge: s}
		res := rm.Partition(ts, m)
		got, pre := twinFingerprint(res), res.NumPreAssigned
		twin, light := rm.LightTwin(ts)
		if light && twin != (RMTSLight{Surcharge: s}) {
			t.Fatalf("LightTwin returned %+v, want surcharge %d and no trace", twin, s)
		}
		if !light && pre != 0 {
			return
		}
		if want := twinFingerprint(RMTSLight{Surcharge: s}.Partition(ts, m)); got != want {
			t.Fatalf("RM-TS (light twin %v, %d pre-assigned) differs from RM-TS/light on m=%d %v:\n--- RM-TS ---\n%s--- RM-TS/light ---\n%s",
				light, pre, m, ts, got, want)
		}
	})
}

// TestRMTSLightTwinThreshold pins LightTwin to phase 1's first test: a set
// is light exactly when no task exceeds Θ/(1+Θ) for its size.
func TestRMTSLightTwinThreshold(t *testing.T) {
	rm := &RMTS{Surcharge: 2}
	light := task.Set{{C: 40, T: 100}, {C: 4, T: 10}}
	if twin, ok := rm.LightTwin(light); !ok || twin != (RMTSLight{Surcharge: 2}) {
		t.Fatalf("LightTwin(%v) = %+v, %v; want RM-TS/light with surcharge 2", light, twin, ok)
	}
	heavy := append(light, task.Task{C: 45, T: 100})
	if bounds.LightThresholdFor(len(heavy)) >= 0.45 {
		t.Fatalf("threshold %v does not separate the fixture", bounds.LightThresholdFor(len(heavy)))
	}
	if _, ok := rm.LightTwin(heavy); ok {
		t.Fatalf("LightTwin(%v) holds with a task above Θ/(1+Θ)", heavy)
	}
}

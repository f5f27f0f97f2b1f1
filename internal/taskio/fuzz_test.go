package taskio

import (
	"bytes"
	"testing"
)

// FuzzParseRoundTrip feeds Parse arbitrary bytes (it must never panic) and
// requires every set it accepts to survive a Save → Parse round trip
// unchanged — the property the CLI pipeline (genset | partition | simulate)
// depends on.
func FuzzParseRoundTrip(f *testing.F) {
	f.Add([]byte("1 10\n2 20\n"))
	f.Add([]byte("# comment\nctrl 2 10\nio 3 30 25\n"))
	f.Add([]byte(`{"tasks":[{"name":"a","c":2,"t":10},{"c":1,"t":5,"d":4}]}`))
	f.Add([]byte("{"))
	f.Add([]byte("9223372036854775807 9223372036854775807\n"))
	f.Add([]byte("17592186044416 17592186044416 17592186044416\n")) // C, T, D at task.MaxTime
	f.Add([]byte("1 17592186044417\n"))                             // T at task.MaxTime+1
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := Parse(data)
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		var buf bytes.Buffer
		if err := Save(&buf, ts); err != nil {
			t.Fatalf("Save of an accepted set failed: %v\ninput: %q", err, data)
		}
		ts2, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("re-Parse of saved set failed: %v\nsaved: %s", err, buf.Bytes())
		}
		if len(ts2) != len(ts) {
			t.Fatalf("round trip changed task count: %d → %d", len(ts), len(ts2))
		}
		for i := range ts {
			if ts[i] != ts2[i] {
				t.Fatalf("task %d changed in round trip: %+v → %+v", i, ts[i], ts2[i])
			}
		}
	})
}

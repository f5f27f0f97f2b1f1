package bounds

import (
	"strings"
	"testing"

	"repro/internal/task"
)

func TestLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		b, err := Lookup(name)
		if err != nil || b == nil {
			t.Fatalf("Lookup(%q) = %v, %v", name, b, err)
		}
		if seen[b.Name()] {
			t.Errorf("Lookup(%q) repeats bound %s", name, b.Name())
		}
		seen[b.Name()] = true
	}
	if len(Names()) != len(Portfolio())+1 {
		t.Errorf("Names() = %v, want one name per Portfolio bound plus best", Names())
	}

	best, _ := Lookup("best")
	for _, s := range [][]task.Time{{4, 8, 16, 32}, {4, 8, 9}, {4, 8, 9, 27, 25}, {100, 199, 401}, {7, 11, 13, 17}} {
		ts := set(s...)
		want := 0.0
		for _, b := range Portfolio() {
			if v := b.Value(ts); v > want {
				want = v
			}
		}
		if got := best.Value(ts); got != want {
			t.Errorf("best on periods %v = %g, want max over Portfolio %g", s, got, want)
		}
	}

	_, err := Lookup("nope")
	if err == nil {
		t.Fatal("unknown bound accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

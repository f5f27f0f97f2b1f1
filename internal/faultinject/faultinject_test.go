package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedHooksAreInert(t *testing.T) {
	Disarm()
	for i := 0; i < 100; i++ {
		if ShouldAbortRTA() {
			t.Fatal("disarmed ShouldAbortRTA fired")
		}
		MaybePanic()
	}
}

func TestEveryOneFiresAlways(t *testing.T) {
	Arm(Plan{Seed: 42, RTAAbortEvery: 1})
	defer Disarm()
	for i := 0; i < 10; i++ {
		if !ShouldAbortRTA() {
			t.Fatal("Every=1 RTAAbort did not fire")
		}
	}
	if Fired(RTAAbort) != 10 || Calls(RTAAbort) != 10 {
		t.Fatalf("RTAAbort fired=%d calls=%d, want 10/10", Fired(RTAAbort), Calls(RTAAbort))
	}
}

func TestFiringPatternIsSeedDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		Arm(Plan{Seed: seed, RTAAbortEvery: 3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = ShouldAbortRTA()
		}
		Disarm()
		return out
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical firing patterns (suspicious hash)")
	}
}

func TestRateIsRoughlyOneInN(t *testing.T) {
	Arm(Plan{Seed: 1, SamplePanicEvery: 4})
	defer Disarm()
	panics := 0
	for i := 0; i < 4000; i++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					if p != PanicValue {
						t.Fatalf("unexpected panic value %v", p)
					}
					panics++
				}
			}()
			MaybePanic()
		}()
	}
	if panics < 700 || panics > 1300 {
		t.Errorf("Every=4 fired %d/4000 times, want ≈1000", panics)
	}
}

func TestRearmResetsCounters(t *testing.T) {
	Arm(Plan{Seed: 1, RTAAbortEvery: 1})
	ShouldAbortRTA()
	Arm(Plan{Seed: 1, RTAAbortEvery: 1})
	defer Disarm()
	if Calls(RTAAbort) != 0 || Fired(RTAAbort) != 0 {
		t.Errorf("re-Arm kept counters: calls=%d fired=%d", Calls(RTAAbort), Fired(RTAAbort))
	}
}

// TestServiceSitesFireAndReport covers the serving-path sites added for the
// crash-safe admission daemon: each hook is inert when disarmed, fires on
// Every=1, and surfaces its distinguishable error (or delay).
func TestServiceSitesFireAndReport(t *testing.T) {
	Disarm()
	if JournalAppendErr() != nil || JournalFsyncErr() != nil || ShouldTearJournal() ||
		SnapshotRenameErr() != nil || HandlerLatencyDelay() != 0 {
		t.Fatal("disarmed service hooks fired")
	}
	Arm(Plan{
		Seed:                9,
		JournalAppendEvery:  1,
		JournalFsyncEvery:   1,
		JournalTearEvery:    1,
		SnapshotRenameEvery: 1,
		HandlerLatencyEvery: 1,
		HandlerDelay:        3 * time.Millisecond,
	})
	defer Disarm()
	if err := JournalAppendErr(); !errors.Is(err, ErrJournalAppend) {
		t.Errorf("JournalAppendErr = %v", err)
	}
	if err := JournalFsyncErr(); !errors.Is(err, ErrJournalFsync) {
		t.Errorf("JournalFsyncErr = %v", err)
	}
	if !ShouldTearJournal() {
		t.Error("JournalTear did not fire")
	}
	if err := SnapshotRenameErr(); !errors.Is(err, ErrSnapshotRename) {
		t.Errorf("SnapshotRenameErr = %v", err)
	}
	if d := HandlerLatencyDelay(); d != 3*time.Millisecond {
		t.Errorf("HandlerLatencyDelay = %v", d)
	}
	for _, s := range []Site{JournalAppend, JournalFsync, JournalTear, SnapshotRename, HandlerLatency} {
		if Fired(s) != 1 || Calls(s) != 1 {
			t.Errorf("%v fired=%d calls=%d, want 1/1", s, Fired(s), Calls(s))
		}
		if s.String() == "site(?)" {
			t.Errorf("site %d has no name", s)
		}
	}
}

// TestServiceSitesAreIndependent pins that arming one serving-path site
// does not make the others fire.
func TestServiceSitesAreIndependent(t *testing.T) {
	Arm(Plan{Seed: 3, JournalAppendEvery: 1})
	defer Disarm()
	if JournalFsyncErr() != nil || ShouldTearJournal() || SnapshotRenameErr() != nil ||
		HandlerLatencyDelay() != 0 {
		t.Error("unarmed sibling site fired")
	}
	if JournalAppendErr() == nil {
		t.Error("armed JournalAppend did not fire")
	}
}

// TestSiteValuesArePinned pins each site's numeric value. The firing hash
// mixes the site value, so renumbering (say, by deleting a retired site
// instead of blanking it) would move every seeded fault to other calls.
func TestSiteValuesArePinned(t *testing.T) {
	want := map[Site]Site{RTAAbort: 0, SamplePanic: 1, JournalAppend: 3,
		JournalFsync: 4, JournalTear: 5, SnapshotRename: 6, HandlerLatency: 7}
	for s, v := range want {
		if s != v {
			t.Errorf("%v = %d, want %d", s, s, v)
		}
	}
	if got := Site(2).String(); got != "site(?)" {
		t.Errorf("retired site 2 is named %q", got)
	}
}

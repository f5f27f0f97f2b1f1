// The race detector makes sync.Pool drop items at random, so a replay takes
// a fresh workspace a varying number of times under -race; these counts
// are meaningful only in a normal build.

//go:build !race

package experiments

import "testing"

// TestAllocGuardReplay pins the cost of naming and regenerating one sample:
// a warm RecipeFor allocates nothing, and a warm ReplaySample allocates
// only the set it returns, for every replayable experiment. Run with
// `go test -run AllocGuard ./...`.
func TestAllocGuardReplay(t *testing.T) {
	for _, key := range ReplayableExperiments() {
		for _, quick := range []bool{false, true} {
			point := len(replaySpecs[key].points(quick)) - 1
			rc, err := RecipeFor(key, 5, quick, point, 3) // warm
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if _, _, err := ReplaySample(key, quick, point, rc.SampleSeed); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			recipe := testing.AllocsPerRun(100, func() {
				if _, err := RecipeFor(key, 5, quick, point, 3); err != nil {
					t.Fatal(err)
				}
			})
			if recipe != 0 {
				t.Errorf("%s quick=%v: warm RecipeFor %v allocs/run, want 0", key, quick, recipe)
			}
			replay := testing.AllocsPerRun(100, func() {
				if _, _, err := ReplaySample(key, quick, point, rc.SampleSeed); err != nil {
					t.Fatal(err)
				}
			})
			if replay != 1 {
				t.Errorf("%s quick=%v: warm ReplaySample %v allocs/run, want 1 (the returned set)", key, quick, replay)
			}
		}
	}
}

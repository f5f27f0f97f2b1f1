package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/xrand"
)

func TestParseRecipe(t *testing.T) {
	want := Recipe{Experiment: "acceptance-general", Point: 3, Sample: 7,
		BaseSeed: 1000, SampleSeed: 1000 + 7*sampleSeedStride}
	for _, in := range []string{
		want.String(),
		"repro: experiment=acceptance-general point=3 sample=7 base-seed=1000",
		fmt.Sprintf("  repro:  experiment=acceptance-general sample-seed=%d point=3 sample=7", want.SampleSeed),
	} {
		got, err := ParseRecipe(in)
		if err != nil {
			t.Errorf("ParseRecipe(%q): %v", in, err)
			continue
		}
		if got.Experiment != want.Experiment || got.Point != want.Point || got.SampleSeed != want.SampleSeed {
			t.Errorf("ParseRecipe(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{
		"",
		"point=3 sample-seed=5",            // no experiment
		"experiment=x sample-seed=5",       // no point
		"experiment=x point=1 base-seed=5", // base without sample
		"experiment=x point=1 sample=2",    // sample without seeds
		"experiment=x point=1 bogus",       // not key=value
		"experiment=x point=1 mystery-field=3 sample-seed=5",        // unknown field
		"experiment=x point=one sample-seed=5",                      // bad int
		"experiment=x point=1 sample=2 base-seed=10 sample-seed=11", // contradiction
		"experiment=x point=1 sample=-2 sample-seed=5",              // negative sample
	} {
		if _, err := ParseRecipe(in); err == nil {
			t.Errorf("ParseRecipe(%q) accepted", in)
		}
	}
}

func TestRecipeStringRoundTrip(t *testing.T) {
	rc, err := RecipeFor("acceptance-harmonic", 42, true, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRecipe(rc.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", rc.String(), err)
	}
	if back != rc {
		t.Fatalf("round trip: %+v != %+v", back, rc)
	}
}

func TestReplayUnsupported(t *testing.T) {
	for _, key := range []string{"acceptance-kchains", "breakdown", "nope"} {
		if _, _, err := ReplaySample(key, true, 0, 1); err == nil {
			t.Errorf("ReplaySample(%q) accepted", key)
		}
		if _, err := RecipeFor(key, 7, true, 0, 0); err == nil {
			t.Errorf("RecipeFor(%q) accepted", key)
		}
	}
	if _, _, err := ReplaySample("acceptance-general", true, 99, 1); err == nil {
		t.Error("out-of-range point accepted")
	}
	if _, err := RecipeFor("acceptance-general", 7, true, 0, -1); err == nil {
		t.Error("negative sample accepted")
	}
}

// TestReplayDeterministic pins that every replayable experiment regenerates
// an identical set for identical replay coordinates, also when several
// goroutines replay at once through the pooled RNGs and scratches: each
// set must equal the one a fresh RNG and a nil scratch generate.
func TestReplayDeterministic(t *testing.T) {
	type job struct {
		key   string
		quick bool
		point int
		seed  int64
		want  task.Set
		wantM int
	}
	var jobs []job
	for _, key := range ReplayableExperiments() {
		spec := replaySpecs[key]
		for _, quick := range []bool{false, true} {
			for p, pt := range spec.points(quick) {
				rc, err := RecipeFor(key, 11, quick, p, 2)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				want, err := spec.set(rand.New(xrand.New(rc.SampleSeed)), nil, pt)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if len(want) == 0 || pt.m <= 0 {
					t.Fatalf("%s: degenerate replay (n=%d m=%d)", key, len(want), pt.m)
				}
				jobs = append(jobs, job{key: key, quick: quick, point: p, seed: rc.SampleSeed, want: want, wantM: pt.m})
			}
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range jobs {
					j := jobs[(i+g*len(jobs)/goroutines)%len(jobs)]
					ts, m, err := ReplaySample(j.key, j.quick, j.point, j.seed)
					if err == nil && (m != j.wantM || !reflect.DeepEqual(ts, j.want)) {
						err = fmt.Errorf("%s quick=%v point %d: replay differs from a fresh RNG and nil scratch", j.key, j.quick, j.point)
					}
					if err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestReplayReproducesSweepCauses is the end-to-end contract behind
// cmd/explain: replaying every sample of a sweep point via RecipeFor +
// ReplaySample and re-partitioning must reproduce the exact per-point
// rejection-cause breakdown the sweep emitted on its point-done events.
// This crosses every seam at once — the seed derivation (XOR, point bases,
// sample stride), the shared generator parameters, scratch-independence of
// generation, and the tally's aggregation order.
func TestReplayReproducesSweepCauses(t *testing.T) {
	const seed, nSets = 7, 16
	stream := recordE2Events(t, 4, seed)

	var checked int
	for _, line := range bytes.Split(bytes.TrimRight(stream, "\n"), []byte("\n")) {
		var ev obs.RunEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != obs.EvPointDone {
			continue
		}
		point := ev.Point - 1
		algos := defaultAlgos()
		causes := make([]partition.Cause, nSets*len(algos))
		for s := 0; s < nSets; s++ {
			rc, err := RecipeFor("acceptance-general", seed, true, point, s)
			if err != nil {
				t.Fatal(err)
			}
			ts, m, err := ReplaySample("acceptance-general", true, rc.Point, rc.SampleSeed)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range algos {
				causes[s*len(algos)+i] = a.alg.Partition(ts, m).RejectionCause()
			}
		}
		var tally causeTally
		tally.add(algos, causes, nSets)
		if !reflect.DeepEqual(tally.rejections, ev.Rejections) {
			t.Errorf("point %d: replayed breakdown %+v != emitted %+v", point, tally.rejections, ev.Rejections)
		}
		if len(ev.Rejections) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no point carried a rejection breakdown — sweep too easy to exercise the tally")
	}
}

package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/task"
	"repro/internal/xrand"
)

// sampleSeedStride is the per-index seed offset of the parEach fan-out:
// sample i of a point with base seed b is generated from b + i·stride (the
// 32-bit golden-ratio constant keeps neighbouring streams uncorrelated).
// ReplaySample and SampleError.Repro both lean on this derivation.
const sampleSeedStride = 0x9E3779B9

// Recipe identifies one sweep sample — the parse of the recipe line printed
// by SampleError.Repro and accepted by cmd/explain. Point and Sample are
// 0-based, matching SampleError's fields (the event stream shifts both to
// 1-based; Repro lines do not).
type Recipe struct {
	Experiment string
	Point      int
	Sample     int
	BaseSeed   int64
	SampleSeed int64
}

// String renders the recipe in SampleError.Repro format.
func (rc Recipe) String() string {
	return fmt.Sprintf("repro: experiment=%s point=%d sample=%d base-seed=%d sample-seed=%d",
		rc.Experiment, rc.Point, rc.Sample, rc.BaseSeed, rc.SampleSeed)
}

// ParseRecipe parses a SampleError.Repro line. The leading "repro:" marker is
// optional, fields may come in any order, and the seed may be given either
// directly (sample-seed) or derivably (base-seed plus sample); when both
// forms are present they must agree.
func ParseRecipe(s string) (Recipe, error) {
	rc := Recipe{Point: -1, Sample: -1}
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "repro:"))
	var haveBase, haveSample, haveSeed bool
	for _, f := range strings.Fields(s) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Recipe{}, fmt.Errorf("recipe: %q is not key=value", f)
		}
		var err error
		switch k {
		case "experiment":
			rc.Experiment = v
		case "point":
			rc.Point, err = strconv.Atoi(v)
		case "sample":
			rc.Sample, err = strconv.Atoi(v)
			haveSample = err == nil
		case "base-seed":
			rc.BaseSeed, err = strconv.ParseInt(v, 10, 64)
			haveBase = err == nil
		case "sample-seed":
			rc.SampleSeed, err = strconv.ParseInt(v, 10, 64)
			haveSeed = err == nil
		default:
			return Recipe{}, fmt.Errorf("recipe: unknown field %q", k)
		}
		if err != nil {
			return Recipe{}, fmt.Errorf("recipe: bad %s: %w", k, err)
		}
	}
	if rc.Experiment == "" {
		return Recipe{}, fmt.Errorf("recipe: missing experiment")
	}
	if rc.Point < 0 {
		return Recipe{}, fmt.Errorf("recipe: missing or negative point")
	}
	if haveSample && rc.Sample < 0 {
		return Recipe{}, fmt.Errorf("recipe: negative sample %d", rc.Sample)
	}
	switch {
	case haveSeed && haveBase && haveSample:
		if want := rc.BaseSeed + int64(rc.Sample)*sampleSeedStride; rc.SampleSeed != want {
			return Recipe{}, fmt.Errorf("recipe: sample-seed %d contradicts base-seed+sample (want %d)", rc.SampleSeed, want)
		}
	case haveSeed:
	case haveBase && haveSample:
		rc.SampleSeed = rc.BaseSeed + int64(rc.Sample)*sampleSeedStride
	default:
		return Recipe{}, fmt.Errorf("recipe: need sample-seed, or base-seed plus sample")
	}
	return rc, nil
}

// replaySpec ties one replayable sweep's seed derivation to its per-point
// generator parameters (which live in the shared param helpers the sweep
// itself uses — see acceptance.go).
type replaySpec struct {
	// seedXor is XORed into the run seed before drawing the point bases.
	seedXor int64
	// points returns the sweep length.
	points func(quick bool) int
	// sample regenerates the task set and processor count of one sample of
	// 0-based point p from r. The point index is pre-validated.
	sample func(r *rand.Rand, quick bool, p int) (task.Set, int, error)
}

func replaySpecs() map[string]replaySpec {
	return map[string]replaySpec{
		"acceptance-general": {
			seedXor: 0xE2,
			points:  func(q bool) int { _, pts := generalParams(q); return len(pts) },
			sample: func(r *rand.Rand, q bool, p int) (task.Set, int, error) {
				m, pts := generalParams(q)
				ts, err := generalSet(r, nil, pts[p]*float64(m))
				return ts, m, err
			},
		},
		"acceptance-light": {
			seedXor: 0xE3,
			points:  func(q bool) int { _, pts := lightParams(q); return len(pts) },
			sample: func(r *rand.Rand, q bool, p int) (task.Set, int, error) {
				m, pts := lightParams(q)
				ts, err := lightSet(r, nil, pts[p]*float64(m))
				return ts, m, err
			},
		},
		"acceptance-harmonic": {
			seedXor: 0xE4,
			points:  func(q bool) int { _, pts := harmonicParams(q); return len(pts) },
			sample: func(r *rand.Rand, q bool, p int) (task.Set, int, error) {
				m, pts := harmonicParams(q)
				ts, err := harmonicSet(r, nil, pts[p]*float64(m))
				return ts, m, err
			},
		},
		"procs-sweep": {
			seedXor: 0xE7,
			points:  func(q bool) int { return len(procsParams(q)) },
			sample: func(r *rand.Rand, q bool, p int) (task.Set, int, error) {
				m := procsParams(q)[p]
				ts, err := procsSet(r, nil, procsSweepUM*float64(m))
				return ts, m, err
			},
		},
		"heavy-sweep": {
			seedXor: 0xE8,
			points:  func(q bool) int { _, _, shares := heavyParams(q); return len(shares) },
			sample: func(r *rand.Rand, q bool, p int) (task.Set, int, error) {
				m, um, shares := heavyParams(q)
				ts, err := heavySet(r, nil, um*float64(m), shares[p])
				return ts, m, err
			},
		},
		"utilization-tail": {
			seedXor: 0xE11,
			points:  func(q bool) int { _, ums := tailParams(q); return len(ums) },
			sample: func(r *rand.Rand, q bool, p int) (task.Set, int, error) {
				m, ums := tailParams(q)
				ts, err := tailSet(r, nil, ums[p]*float64(m))
				return ts, m, err
			},
		},
	}
}

// ReplayableExperiments lists the registry keys ReplaySample supports, in
// registry order. acceptance-kchains is deliberately absent: it runs two
// tables (K=2, 3) under one point counter, so a point index alone does not
// identify the generator parameters.
func ReplayableExperiments() []string {
	specs := replaySpecs()
	var out []string
	for _, e := range Registry() {
		if _, ok := specs[e.Key]; ok {
			out = append(out, e.Key)
		}
	}
	return out
}

// RecipeFor derives the replay recipe of sample (point, sample) of a
// replayable experiment under the given run seed and quick flag — the exact
// derivation the sweep itself uses (per-experiment seed XOR, point bases
// pre-drawn in order, golden-ratio sample stride). It lets tools name any
// sample, not just the crashed ones SampleError reports.
func RecipeFor(experiment string, runSeed int64, quick bool, point, sample int) (Recipe, error) {
	spec, ok := replaySpecs()[experiment]
	if !ok {
		return Recipe{}, fmt.Errorf("experiment %q is not replayable (replayable: %s)",
			experiment, strings.Join(ReplayableExperiments(), ", "))
	}
	n := spec.points(quick)
	if point < 0 || point >= n {
		return Recipe{}, fmt.Errorf("%s: point %d out of range [0,%d)", experiment, point, n)
	}
	if sample < 0 {
		return Recipe{}, fmt.Errorf("%s: negative sample %d", experiment, sample)
	}
	bases := pointBases(rand.New(xrand.New(runSeed^spec.seedXor)), n)
	return Recipe{
		Experiment: experiment,
		Point:      point,
		Sample:     sample,
		BaseSeed:   bases[point],
		SampleSeed: bases[point] + int64(sample)*sampleSeedStride,
	}, nil
}

// ReplaySample regenerates the task set of one sweep sample bit for bit from
// its replay seeds: the experiment key, the Quick flag the run used, the
// 0-based sweep point, and the sample's derived seed. It returns the set and
// the processor count the sweep offered it to. Generation uses a fresh RNG
// and a nil scratch; sweeps produce identical sets through their reused
// scratch (gen's TestScratchMatchesNil pins scratch-independence).
func ReplaySample(experiment string, quick bool, point int, sampleSeed int64) (task.Set, int, error) {
	spec, ok := replaySpecs()[experiment]
	if !ok {
		return nil, 0, fmt.Errorf("experiment %q is not replayable (replayable: %s)",
			experiment, strings.Join(ReplayableExperiments(), ", "))
	}
	if n := spec.points(quick); point < 0 || point >= n {
		return nil, 0, fmt.Errorf("%s: point %d out of range [0,%d)", experiment, point, n)
	}
	return spec.sample(rand.New(xrand.New(sampleSeed)), quick, point)
}

package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/task"
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

// replayPoint is the generator input of one sweep point: the processor
// count, the target total utilization and, for heavy-sweep, the heavy
// share.
type replayPoint struct {
	m             int
	target, share float64
}

// replaySpec ties one replayable sweep's seed derivation to its per-point
// generator parameters. The points are derived once per Quick setting from
// the shared param helpers the sweep itself uses (see acceptance.go), so a
// replay reads a table instead of rebuilding the grid.
type replaySpec struct {
	// seedXor is XORed into the run seed before drawing the point bases.
	seedXor int64
	// full and quick are the sweep's points without and with Quick.
	full, quick []replayPoint
	// set regenerates one sample of point pt from r, drawing through sc.
	set func(r *rand.Rand, sc *gen.Scratch, pt replayPoint) (task.Set, error)
}

func (s replaySpec) points(quick bool) []replayPoint {
	if quick {
		return s.quick
	}
	return s.full
}

// gridSpec derives a spec's point tables from grid, once per Quick setting.
func gridSpec(seedXor int64, grid func(quick bool) []replayPoint,
	set func(*rand.Rand, *gen.Scratch, replayPoint) (task.Set, error)) replaySpec {
	return replaySpec{seedXor: seedXor, full: grid(false), quick: grid(true), set: set}
}

// umSpec is gridSpec for a U_M sweep on a fixed processor count.
func umSpec(seedXor int64, params func(quick bool) (int, []float64),
	set func(*rand.Rand, *gen.Scratch, float64) (task.Set, error)) replaySpec {
	return gridSpec(seedXor, func(q bool) []replayPoint {
		m, ums := params(q)
		pts := make([]replayPoint, len(ums))
		for i, um := range ums {
			pts[i] = replayPoint{m: m, target: um * float64(m)}
		}
		return pts
	}, func(r *rand.Rand, sc *gen.Scratch, pt replayPoint) (task.Set, error) {
		return set(r, sc, pt.target)
	})
}

// replaySpecs is the replay registry, built once; it is only read after
// package initialization, so concurrent replays share it.
var replaySpecs = map[string]replaySpec{
	"acceptance-general":  umSpec(0xE2, generalParams, generalSet),
	"acceptance-light":    umSpec(0xE3, lightParams, lightSet),
	"acceptance-harmonic": umSpec(0xE4, harmonicParams, harmonicSet),
	"procs-sweep": gridSpec(0xE7, func(q bool) []replayPoint {
		ms := procsParams(q)
		pts := make([]replayPoint, len(ms))
		for i, m := range ms {
			pts[i] = replayPoint{m: m, target: procsSweepUM * float64(m)}
		}
		return pts
	}, func(r *rand.Rand, sc *gen.Scratch, pt replayPoint) (task.Set, error) {
		return procsSet(r, sc, pt.target)
	}),
	"heavy-sweep": gridSpec(0xE8, func(q bool) []replayPoint {
		m, um, shares := heavyParams(q)
		pts := make([]replayPoint, len(shares))
		for i, share := range shares {
			pts[i] = replayPoint{m: m, target: um * float64(m), share: share}
		}
		return pts
	}, func(r *rand.Rand, sc *gen.Scratch, pt replayPoint) (task.Set, error) {
		return heavySet(r, sc, pt.target, pt.share)
	}),
	"utilization-tail": umSpec(0xE11, tailParams, tailSet),
}

// ReplayableExperiments lists the registry keys ReplaySample supports, in
// registry order. acceptance-kchains is deliberately absent: it runs two
// tables (K=2, 3) under one point counter, so a point index alone does not
// identify the generator parameters.
func ReplayableExperiments() []string {
	var out []string
	for _, e := range Registry() {
		if _, ok := replaySpecs[e.Key]; ok {
			out = append(out, e.Key)
		}
	}
	return out
}

// lookupReplay looks up the spec of experiment and its 0-based point under
// the quick flag.
func lookupReplay(experiment string, quick bool, point int) (replaySpec, replayPoint, error) {
	spec, ok := replaySpecs[experiment]
	if !ok {
		return replaySpec{}, replayPoint{}, fmt.Errorf("experiment %q is not replayable (replayable: %s)",
			experiment, strings.Join(ReplayableExperiments(), ", "))
	}
	pts := spec.points(quick)
	if point < 0 || point >= len(pts) {
		return replaySpec{}, replayPoint{}, fmt.Errorf("%s: point %d out of range [0,%d)", experiment, point, len(pts))
	}
	return spec, pts[point], nil
}

// RecipeFor derives the replay recipe of sample (point, sample) of a
// replayable experiment under the given run seed and quick flag — the exact
// derivation the sweep itself uses (per-experiment seed XOR, point bases
// drawn in order, golden-ratio sample stride). It lets tools name any
// sample, not just the crashed ones SampleError reports. The point base is
// drawn from a pooled, reseeded RNG, so a call allocates nothing.
func RecipeFor(experiment string, runSeed int64, quick bool, point, sample int) (Recipe, error) {
	spec, _, err := lookupReplay(experiment, quick, point)
	if err != nil {
		return Recipe{}, err
	}
	if sample < 0 {
		return Recipe{}, fmt.Errorf("%s: negative sample %d", experiment, sample)
	}
	ws := wsPool.Get().(*Workspace)
	ws.rng.Seed(runSeed ^ spec.seedXor)
	var base int64
	for i := 0; i <= point; i++ { // pointBases(r, n)[point]
		base = ws.rng.Int63()
	}
	wsPool.Put(ws)
	return Recipe{
		Experiment: experiment,
		Point:      point,
		Sample:     sample,
		BaseSeed:   base,
		SampleSeed: base + int64(sample)*sampleSeedStride,
	}, nil
}

// ReplaySample regenerates the task set of one sweep sample bit for bit from
// its replay seeds: the experiment key, the Quick flag the run used, the
// 0-based sweep point, and the sample's derived seed. It returns the set and
// the processor count the sweep offered it to. Generation draws from a
// pooled workspace's RNG, reseeded exactly as parEach reseeds it, and its
// generator scratch (gen's TestScratchMatchesNil pins scratch-independence),
// so the returned set, a copy the caller owns, is its only allocation. Safe
// for concurrent use.
func ReplaySample(experiment string, quick bool, point int, sampleSeed int64) (task.Set, int, error) {
	spec, pt, err := lookupReplay(experiment, quick, point)
	if err != nil {
		return nil, 0, err
	}
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	ws.rng.Seed(sampleSeed)
	ts, err := spec.set(ws.rng, ws.Gen(), pt)
	if err != nil {
		return nil, 0, err
	}
	return ts.Clone(), pt.m, nil
}

package bounds

import (
	"math/rand"
	"testing"

	"repro/internal/rta"
	"repro/internal/task"
)

// The decisive check on every implemented PUB formula: a bound is only
// correct if EVERY task set with U(τ) ≤ Λ(τ) passes exact uniprocessor
// RTA. Transcription errors in the formulas would show up here as concrete
// counterexamples.

func rmSchedulable(ts task.Set) bool {
	sorted := ts.Clone()
	sorted.SortRM()
	list := make([]task.Subtask, len(sorted))
	for i, t := range sorted {
		list[i] = task.Whole(i, t)
	}
	return rta.ProcessorSchedulable(list)
}

// scaleToBound rescales execution times so the total utilization lands
// just under target (floored to integers, so the realized total is ≤
// target plus one-tick noise; sets that overshoot are discarded by the
// caller).
func scaleToBound(r *rand.Rand, ts task.Set, target float64) (task.Set, bool) {
	u := ts.TotalUtilization()
	if u <= 0 {
		return nil, false
	}
	f := target / u * (0.90 + 0.099*r.Float64()) // land in [0.90, 0.999]·target
	out := ts.Clone()
	for i := range out {
		c := task.Time(float64(out[i].C) * f)
		if c < 1 {
			c = 1
		}
		if c > out[i].T {
			c = out[i].T
		}
		out[i].C = c
	}
	if out.TotalUtilization() > target {
		return nil, false
	}
	return out, true
}

func checkBoundSoundness(t *testing.T, b PUB, mkPeriods func(r *rand.Rand, n int) []task.Time, trials int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tested := 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + r.Intn(8)
		periods := mkPeriods(r, n)
		ts := make(task.Set, n)
		for i, p := range periods {
			c := task.Time(1 + r.Int63n(int64(p)))
			ts[i] = task.Task{Name: "s", C: c, T: p}
		}
		bound := b.Value(ts)
		if bound <= 0 || bound > 1 {
			t.Fatalf("%s produced out-of-range bound %g for periods %v", b.Name(), bound, periods)
		}
		scaled, ok := scaleToBound(r, ts, bound)
		if !ok {
			continue
		}
		if !rmSchedulable(scaled) {
			t.Fatalf("%s UNSOUND: set %v has U=%.6f ≤ Λ=%.6f but fails exact RTA",
				b.Name(), scaled, scaled.TotalUtilization(), bound)
		}
		tested++
	}
	if tested < trials/2 {
		t.Errorf("%s: only %d/%d trials landed under the bound", b.Name(), tested, trials)
	}
}

func genericPeriods(r *rand.Rand, n int) []task.Time {
	out := make([]task.Time, n)
	for i := range out {
		out[i] = task.Time(20 + r.Intn(2000))
	}
	return out
}

func harmonicPeriods(r *rand.Rand, n int) []task.Time {
	out := make([]task.Time, n)
	p := task.Time(8 + r.Intn(20))
	for i := range out {
		out[i] = p
		p *= task.Time(1 + r.Intn(3))
	}
	return out
}

func chainyPeriods(r *rand.Rand, n int) []task.Time {
	// A few harmonic chains with coprime bases.
	bases := []task.Time{16, 81, 125}
	out := make([]task.Time, n)
	for i := range out {
		b := bases[r.Intn(len(bases))]
		out[i] = b << uint(r.Intn(4))
	}
	return out
}

// raiseToBound raises each C, in index order, to the largest integer (at
// most T) that keeps U(τ) ≤ bound, so the set sits as close under Λ(τ) as
// integer execution times allow.
func raiseToBound(ts task.Set, bound float64) {
	for i := range ts {
		orig := ts[i].C
		rest := ts.TotalUtilization() - ts[i].Utilization()
		ts[i].C = min(max(task.Time((bound-rest)*float64(ts[i].T)), orig), ts[i].T)
		for ts[i].C > orig && ts.TotalUtilization() > bound {
			ts[i].C--
		}
		for ts[i].C < ts[i].T {
			ts[i].C++
			if ts.TotalUtilization() > bound {
				ts[i].C--
				break
			}
		}
	}
}

// FuzzPUBSound is checkBoundSoundness as a property over every -pub name:
// an implicit-deadline set whose periods come from the generic, harmonic or
// chain family and whose execution times are scaled under Λ(τ) and then
// each raised to the largest integer the bound allows must pass exact RTA,
// and lowering any one C must keep it schedulable.
func FuzzPUBSound(f *testing.F) {
	families := []func(r *rand.Rand, n int) []task.Time{genericPeriods, harmonicPeriods, chainyPeriods}
	for fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			f.Add(uint8(fam), uint8(seed*3), seed)
		}
	}
	f.Fuzz(func(t *testing.T, fam, nRaw uint8, seed int64) {
		n := 2 + int(nRaw)%8
		for _, name := range Names() {
			b, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(seed))
			periods := families[int(fam)%len(families)](r, n)
			ts := make(task.Set, n)
			for i, p := range periods {
				ts[i] = task.Task{Name: "s", C: task.Time(1 + r.Int63n(int64(p))), T: p}
			}
			bound := b.Value(ts)
			if bound <= 0 || bound > 1 {
				t.Fatalf("%s produced out-of-range bound %g for periods %v", name, bound, periods)
			}
			scaled, ok := scaleToBound(r, ts, bound)
			if !ok {
				continue
			}
			raiseToBound(scaled, bound)
			if !rmSchedulable(scaled) {
				t.Fatalf("%s UNSOUND: set %v has U=%.17g ≤ Λ=%.17g but fails exact RTA",
					name, scaled, scaled.TotalUtilization(), bound)
			}
			for i := range scaled {
				if scaled[i].C == 1 {
					continue
				}
				lower := scaled.Clone()
				lower[i].C = task.Time(1 + r.Int63n(int64(lower[i].C-1)))
				if !rmSchedulable(lower) {
					t.Fatalf("%s: lowering C of task %d to %d broke schedulability of %v", name, i, lower[i].C, scaled)
				}
			}
		}
	})
}

func TestLiuLaylandSound(t *testing.T) {
	checkBoundSoundness(t, LiuLayland{}, genericPeriods, 300, 1001)
}

func TestHarmonicChainMinSoundOnHarmonic(t *testing.T) {
	checkBoundSoundness(t, HarmonicChain{Minimal: true}, harmonicPeriods, 300, 1002)
}

func TestHarmonicChainMinSoundOnChains(t *testing.T) {
	checkBoundSoundness(t, HarmonicChain{Minimal: true}, chainyPeriods, 300, 1003)
}

func TestHarmonicChainGreedySound(t *testing.T) {
	checkBoundSoundness(t, HarmonicChain{}, chainyPeriods, 300, 1004)
}

func TestTBoundSound(t *testing.T) {
	checkBoundSoundness(t, TBound{}, genericPeriods, 300, 1005)
	checkBoundSoundness(t, TBound{}, harmonicPeriods, 200, 1006)
}

func TestRBoundSound(t *testing.T) {
	checkBoundSoundness(t, RBound{}, genericPeriods, 300, 1007)
	checkBoundSoundness(t, RBound{}, harmonicPeriods, 200, 1008)
}

func TestMaxCombinatorSound(t *testing.T) {
	best := Max{Bounds: []PUB{LiuLayland{}, HarmonicChain{Minimal: true}, TBound{}, RBound{}}}
	checkBoundSoundness(t, best, genericPeriods, 200, 1009)
	checkBoundSoundness(t, best, harmonicPeriods, 200, 1010)
	checkBoundSoundness(t, best, chainyPeriods, 200, 1011)
}

func TestBoundsAreNotVacuouslyTight(t *testing.T) {
	// Sanity in the other direction: slightly ABOVE the harmonic bound
	// there must exist unschedulable sets — otherwise the test harness is
	// broken and accepts everything.
	ts := task.Set{
		{Name: "a", C: 3, T: 4},
		{Name: "b", C: 2, T: 8},
	}
	if u := ts.TotalUtilization(); u != 1.0 {
		t.Fatalf("setup: U=%g", u)
	}
	over := task.Set{
		{Name: "a", C: 3, T: 4},
		{Name: "b", C: 3, T: 8},
	}
	if rmSchedulable(over) {
		t.Error("U=1.125 set passed RTA")
	}
	if !rmSchedulable(ts) {
		t.Error("harmonic U=1.0 set failed RTA")
	}
}

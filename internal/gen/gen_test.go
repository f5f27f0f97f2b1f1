package gen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/task"
)

func TestTaskSetHitsTarget(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		target := 1.0 + r.Float64()*6
		ts, err := TaskSet(r, Config{TargetU: target, UMin: 0.05, UMax: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		got := ts.TotalUtilization()
		// Integer rounding perturbs each task by at most 1/T ≤ 1/100.
		if math.Abs(got-target) > 0.01*float64(len(ts))+0.06 {
			t.Errorf("trial %d: total %.4f for target %.4f (%d tasks)", trial, got, target, len(ts))
		}
		if err := ts.Validate(); err != nil {
			t.Fatal(err)
		}
		if !ts.IsSortedRM() {
			t.Error("generator must return RM-sorted sets")
		}
	}
}

func TestTaskSetRespectsUtilizationRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ts, err := TaskSet(r, Config{TargetU: 4, UMin: 0.1, UMax: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range ts {
		u := tk.Utilization()
		// Rounding can push slightly past the nominal range.
		if u < 0.1-0.02 || u > 0.3+0.02 {
			t.Errorf("task %v has utilization %.4f outside [0.1, 0.3]", tk, u)
		}
	}
}

func TestTaskSetRejectsBadConfig(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	bad := []Config{
		{TargetU: 0, UMin: 0.1, UMax: 0.3},
		{TargetU: -1, UMin: 0.1, UMax: 0.3},
		{TargetU: 1, UMin: 0, UMax: 0.3},
		{TargetU: 1, UMin: 0.4, UMax: 0.3},
		{TargetU: 1, UMin: 0.1, UMax: 1.5},
		{TargetU: 100, UMin: 0.001, UMax: 0.002, MaxTasks: 10},
	}
	for i, c := range bad {
		if _, err := TaskSet(r, c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestPeriodGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	lg := LogUniformPeriods{Min: 100, Max: 10000}
	for i := 0; i < 2000; i++ {
		p := lg.Period(r)
		if p < 100 || p > 10000 {
			t.Fatalf("log-uniform period %d out of range", p)
		}
	}
	ug := UniformPeriods{Min: 5, Max: 7}
	seen := map[task.Time]bool{}
	for i := 0; i < 200; i++ {
		p := ug.Period(r)
		if p < 5 || p > 7 {
			t.Fatalf("uniform period %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Errorf("uniform generator covered %d of 3 values", len(seen))
	}
	cg := ChoicePeriods{Values: []task.Time{10, 20}}
	for i := 0; i < 100; i++ {
		p := cg.Period(r)
		if p != 10 && p != 20 {
			t.Fatalf("choice period %d not in menu", p)
		}
	}
}

func TestLogUniformSpreadsAcrossDecades(t *testing.T) {
	// Roughly half the draws from [100, 10000] should land below 1000.
	r := rand.New(rand.NewSource(5))
	lg := LogUniformPeriods{Min: 100, Max: 10000}
	below := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if lg.Period(r) < 1000 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("fraction below 1000 = %.3f, want ≈ 0.5 (log-uniform)", frac)
	}
}

func TestUUniFast(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(10)
		target := r.Float64() * float64(n)
		us := UUniFast(r, n, target)
		sum := 0.0
		for _, u := range us {
			sum += u
		}
		if math.Abs(sum-target) > 1e-9 {
			t.Fatalf("UUniFast sum %.6f ≠ target %.6f", sum, target)
		}
	}
}

func TestHarmonicSetSingleChain(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		ts, err := HarmonicSet(r, HarmonicConfig{TargetU: 2.5, UMin: 0.05, UMax: 0.4, Chains: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !ts.IsHarmonic() {
			t.Fatalf("trial %d: single-chain request produced non-harmonic set %v", trial, ts)
		}
		if err := ts.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHarmonicSetExactChainCount(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 2, 3, 4} {
		for trial := 0; trial < 10; trial++ {
			ts, err := HarmonicSet(r, HarmonicConfig{TargetU: float64(k) * 1.2, UMin: 0.05, UMax: 0.4, Chains: k})
			if err != nil {
				t.Fatal(err)
			}
			got := bounds.HarmonicChainsMin(bounds.Periods(ts))
			if got != k {
				t.Fatalf("requested %d chains, got %d: periods %v", k, got, bounds.Periods(ts))
			}
		}
	}
}

func TestHarmonicSetUtilization(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ts, err := HarmonicSet(r, HarmonicConfig{TargetU: 3.0, UMin: 0.1, UMax: 0.4, Chains: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.TotalUtilization(); math.Abs(got-3.0) > 0.15 {
		t.Errorf("total utilization %.4f far from target 3.0", got)
	}
}

func TestHarmonicSetRejectsBadConfig(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	bad := []HarmonicConfig{
		{TargetU: 1, UMin: 0.1, UMax: 0.4, Chains: 0},
		{TargetU: 0, UMin: 0.1, UMax: 0.4, Chains: 1},
		{TargetU: 1, UMin: 0, UMax: 0.4, Chains: 1},
		{TargetU: 1, UMin: 0.1, UMax: 0.4, Chains: 99},
		{TargetU: 1, UMin: 0.1, UMax: 0.4, Chains: 2, BasePeriods: []task.Time{64}},
	}
	for i, c := range bad {
		if _, err := HarmonicSet(r, c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestMixedSetHeavyShare(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ts, err := MixedSet(r, MixedConfig{
		TargetU:    4.0,
		HeavyShare: 0.5,
		HeavyMin:   0.5, HeavyMax: 0.7,
		LightMin: 0.05, LightMax: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	heavyU := 0.0
	for _, tk := range ts {
		if u := tk.Utilization(); u >= 0.45 {
			heavyU += u
		}
	}
	if heavyU < 1.2 || heavyU > 2.8 {
		t.Errorf("heavy tasks carry %.3f of 4.0, want ≈ 2.0", heavyU)
	}
	if math.Abs(ts.TotalUtilization()-4.0) > 0.2 {
		t.Errorf("total %.4f", ts.TotalUtilization())
	}
}

func TestMixedSetZeroHeavyShare(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ts, err := MixedSet(r, MixedConfig{
		TargetU:    2.0,
		HeavyShare: 0,
		LightMin:   0.05, LightMax: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range ts {
		if tk.Utilization() > 0.33 {
			t.Errorf("heavy task %v in zero-heavy-share set", tk)
		}
	}
}

func TestMixedSetRejectsBadShare(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, share := range []float64{-0.1, 1.1} {
		if _, err := MixedSet(r, MixedConfig{TargetU: 1, HeavyShare: share, LightMin: 0.1, LightMax: 0.2}); err == nil {
			t.Errorf("share %g accepted", share)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err := TaskSet(rand.New(rand.NewSource(42)), Config{TargetU: 3, UMin: 0.1, UMax: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TaskSet(rand.New(rand.NewSource(42)), Config{TargetU: 3, UMin: 0.1, UMax: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMaterializeValidation(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	if _, err := MaterializeInto(r, []float64{0.5, 1.5}, UniformPeriods{Min: 10, Max: 20}, nil); err == nil {
		t.Error("utilization > 1 accepted")
	}
	if _, err := MaterializeInto(r, []float64{0.5, 0}, UniformPeriods{Min: 10, Max: 20}, nil); err == nil {
		t.Error("zero utilization accepted")
	}
	ts, err := MaterializeInto(r, []float64{0.001}, UniformPeriods{Min: 10, Max: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].C != 1 {
		t.Errorf("tiny utilization should clamp C to 1, got %d", ts[0].C)
	}
}

func TestConstrain(t *testing.T) {
	r := rand.New(rand.NewSource(200))
	base, err := TaskSet(r, Config{TargetU: 2, UMin: 0.1, UMax: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Constrain(r, base, 0.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(base) {
		t.Fatal("length changed")
	}
	for i, tk := range ts {
		if err := tk.Validate(); err != nil {
			t.Fatalf("task %d invalid after Constrain: %v", i, err)
		}
		d := tk.Deadline()
		if d < tk.C || d > tk.T {
			t.Fatalf("task %d deadline %d out of [C,T]", i, d)
		}
		// Roughly within the requested fraction band (C floor aside).
		if f := float64(d) / float64(tk.T); f > 0.8+0.02 && d != tk.C {
			t.Fatalf("task %d deadline fraction %.3f above band", i, f)
		}
		if base[i].C != tk.C || base[i].T != tk.T {
			t.Fatalf("task %d C/T changed", i)
		}
		if base[i].D != 0 {
			t.Fatal("input mutated")
		}
	}
}

func TestConstrainRejectsBadRange(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	ts := task.Set{{C: 1, T: 10}}
	for _, rng := range [][2]float64{{0, 0.5}, {0.6, 0.5}, {0.5, 1.5}} {
		if _, err := Constrain(r, ts, rng[0], rng[1]); err == nil {
			t.Errorf("range %v accepted", rng)
		}
	}
}

func TestConstrainClampsToC(t *testing.T) {
	// A task with C near T: tiny fractions must clamp D to C.
	r := rand.New(rand.NewSource(202))
	ts := task.Set{{Name: "x", C: 9, T: 10}}
	out, err := Constrain(r, ts, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].D != 9 {
		t.Errorf("D = %d, want clamped to C=9", out[0].D)
	}
}

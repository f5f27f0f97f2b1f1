package experiments

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
)

// TestLightTwinReuseCounters pins where the harness reuses RM-TS/light's
// verdict for RM-TS: E3 draws only light sets and runs both algorithms, so
// it reuses once per generated set; E2 has no RM-TS/light column and never
// reuses. E6 refuses over-capacity probes without partitioning.
func TestLightTwinReuseCounters(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	cfg := quickCfg()
	run := func(key string) {
		t.Helper()
		obs.Reset()
		e, ok := Find(key)
		if !ok {
			t.Fatalf("%s not registered", key)
		}
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}

	run("acceptance-light")
	_, points := lightParams(cfg.Quick)
	if got, want := cLightTwinReuses.Value(), int64(len(points)*cfg.setsPerPoint()); got != want {
		t.Errorf("acceptance-light: light_twin_reuses = %d, want one per set = %d", got, want)
	}

	run("acceptance-general")
	if got := cLightTwinReuses.Value(); got != 0 {
		t.Errorf("acceptance-general: light_twin_reuses = %d, want 0", got)
	}

	run("breakdown")
	if cLightTwinReuses.Value() == 0 || cBreakdownOverCapacity.Value() == 0 {
		t.Errorf("breakdown: light_twin_reuses = %d, over_capacity = %d; want both ticking",
			cLightTwinReuses.Value(), cBreakdownOverCapacity.Value())
	}
}

// TestBreakdownKeepsDeadlines checks that breakdownOf scales a
// constrained shape without dropping D. Two {C: 3, D: 4, T: 10} tasks on
// one processor fit under implicit deadlines (R = 6 ≤ 10) but not under
// D = 4, so the bisection must settle below λ = 1, at C = 2 (R = 4 ≤ 4):
// U_M = 2·2/10.
func TestBreakdownKeepsDeadlines(t *testing.T) {
	shape := task.Set{{Name: "a", C: 3, D: 4, T: 10}, {Name: "b", C: 3, D: 4, T: 10}}
	for _, alg := range []partition.Algorithm{partition.RMTSLight{}, partition.NewRMTS(nil), partition.FirstFitRTA{}} {
		if got := breakdownOf(&Workspace{}, alg, shape, 1); math.Abs(got-0.4) > 1e-12 {
			t.Errorf("%s: breakdown U_M = %v, want 0.4 (deadline D = 4 kept)", alg.Name(), got)
		}
	}
}

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/global"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/xrand"
)

// GlobalCompare (E12) places the paper's partitioned algorithms against
// the global fixed-priority paradigm of §I's related-work discussion:
//
//   - table 1 demonstrates the Dhall effect [14]: the classic witness set
//     has shrinking normalized utilization as M grows, yet global RM
//     always misses, while RM-US and RM-TS schedule it;
//   - table 2 sweeps U_M and compares empirical global-RM / RM-US success
//     (simulation over a capped hyperperiod — necessary-only evidence!)
//     and the RM-US utilization bound m/(3m−2) against RM-TS's guaranteed
//     acceptance. The paper's point: the best global fixed-priority
//     *bound* is ≈33–50%, far below RM-TS's 81.8–100%.
func GlobalCompare(cfg Config) ([]Table, error) {
	t1 := Table{
		ID:     "global-compare/dhall",
		Title:  "Dhall effect: witness sets (m light tasks + one C=T task)",
		Header: []string{"M", "U_M(τ)", "global RM", "RM-US", "RM-TS (partitioned)"},
		Notes: []string{
			"global RM must miss at every M although U_M shrinks — the Dhall effect [14]",
		},
	}
	ms := []int{2, 4, 8, 16}
	if cfg.Quick {
		ms = []int{2, 4}
	}
	for _, m := range ms {
		ts := global.DhallExample(m, 50)
		grm, err := global.Simulate(ts, m, global.Options{Policy: global.RM, StopOnMiss: true})
		if err != nil {
			return nil, fmt.Errorf("global-compare: %w", err)
		}
		rmus, err := global.Simulate(ts, m, global.Options{Policy: global.RMUS, StopOnMiss: true})
		if err != nil {
			return nil, fmt.Errorf("global-compare: %w", err)
		}
		res := partition.NewRMTS(nil).Partition(ts, m)
		t1.Rows = append(t1.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%.3f", ts.NormalizedUtilization(m)),
			missLabel(grm.Ok()),
			missLabel(rmus.Ok()),
			missLabel(res.OK && res.Guaranteed),
		})
	}

	r := rand.New(xrand.New(cfg.Seed ^ 0xE12))
	m := 8
	points := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if cfg.Quick {
		m = 4
		points = []float64{0.4, 0.6, 0.8}
	}
	t2 := Table{
		ID:    "global-compare/acceptance",
		Title: fmt.Sprintf("M=%d, U_i∈[0.05,0.9], %d sets/point; G-RM/RM-US = simulation over capped hyperperiod (necessary-only), others = guarantees", m, cfg.setsPerPoint()),
		Header: []string{
			"U_M", "G-RM sim", "RM-US sim", "RM-US bound", "RM-TS guaranteed",
		},
		Notes: []string{
			fmt.Sprintf("RM-US bound here: U_M ≤ m/(3m−2) = %.3f", global.USBound(m)),
			"simulation success is NO schedulability guarantee (synchronous release need not be the global worst case)",
		},
	}
	menu := gen.ChoicePeriods{Values: []task.Time{20, 40, 50, 80, 100, 200, 400}}
	rmts := partition.NewRMTS(nil) // stateless across calls; shareable between workers
	for _, um := range points {
		um := um
		n := cfg.setsPerPoint()
		perSet := make([][4]bool, n)
		errs := make([]error, n)
		parErr := cfg.parEach(r.Int63(), n, func(s int, r *rand.Rand, ws *Workspace) {
			ts, err := gen.TaskSetInto(r, gen.Config{TargetU: um * float64(m), UMin: 0.05, UMax: 0.9, Periods: menu}, ws.Gen())
			if err != nil {
				errs[s] = err
				return
			}
			var o [4]bool
			if rep, err := global.Simulate(ts, m, global.Options{Policy: global.RM, StopOnMiss: true, HorizonCap: 200_000}); err == nil && rep.Ok() {
				o[0] = true
			}
			if rep, err := global.Simulate(ts, m, global.Options{Policy: global.RMUS, StopOnMiss: true, HorizonCap: 200_000}); err == nil && rep.Ok() {
				o[1] = true
			}
			o[2] = global.SchedulableByUSBound(ts, m)
			if res := ws.Partition(rmts, ts, m); res.OK && res.Guaranteed {
				o[3] = true
			}
			perSet[s] = o
		})
		if parErr != nil {
			return nil, fmt.Errorf("global-compare: %w", parErr)
		}
		if err := firstError(errs); err != nil {
			return nil, fmt.Errorf("global-compare: %w", err)
		}
		var grmOK, rmusOK, usBound, rmtsOK int
		for _, o := range perSet {
			if o[0] {
				grmOK++
			}
			if o[1] {
				rmusOK++
			}
			if o[2] {
				usBound++
			}
			if o[3] {
				rmtsOK++
			}
		}
		t2.Rows = append(t2.Rows, []string{
			fmt.Sprintf("%.2f", um),
			fmt.Sprintf("%.3f", float64(grmOK)/float64(n)),
			fmt.Sprintf("%.3f", float64(rmusOK)/float64(n)),
			fmt.Sprintf("%.3f", float64(usBound)/float64(n)),
			fmt.Sprintf("%.3f", float64(rmtsOK)/float64(n)),
		})
		cfg.progressf("global-compare: U_M=%.2f done", um)
	}
	return []Table{t1, t2}, nil
}

func missLabel(ok bool) string {
	if ok {
		return "schedulable"
	}
	return "MISS"
}

package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/xrand"
)

// AnalysisPessimism (E17) measures how tight the certified response-time
// bounds are in practice: for RM-TS partitions, every task's worst
// observed response over the (capped) hyperperiod is divided by its
// RTA-certified bound (tail fragments: offset + R against the deadline).
// Values near 1 mean the analysis margin is consumed; low values mean the
// synchronous critical instant rarely materializes across processors.
// Expected: the LOWEST-priority task per processor sits near 1 (its
// critical instant is the synchronous release, which the simulation
// reproduces), while higher-priority tasks retain margin; non-split tasks
// are tighter than split ones (cross-processor phasing rarely aligns).
func AnalysisPessimism(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE17))
	m := 4
	sets := cfg.setsPerPoint()
	if cfg.Quick && sets > 30 {
		sets = 30
	}
	menu := gen.ChoicePeriods{Values: []task.Time{20, 40, 50, 80, 100, 200, 400}}
	alg := partition.NewRMTS(nil)

	type sample struct {
		ratio float64
		split bool
		last  bool // lowest priority on its processor
	}
	perSet := make([][]sample, sets)
	errs := make([]error, sets)
	parErr := cfg.parEach(r.Int63(), sets, func(s int, r *rand.Rand, ws *Workspace) {
		um := 0.6 + 0.3*r.Float64()
		ts, err := gen.TaskSetInto(r, gen.Config{TargetU: um * float64(m), UMin: 0.05, UMax: 0.5, Periods: menu}, ws.Gen())
		if err != nil {
			errs[s] = err
			return
		}
		res := ws.Partition(alg, ts, m)
		if !res.OK {
			return
		}
		rep, err := sim.Simulate(res.Assignment, sim.Options{StopOnMiss: true, HorizonCap: 200_000})
		if err != nil || !rep.Ok() {
			errs[s] = fmt.Errorf("verified partition missed in simulation")
			return
		}
		var out []sample
		asg := res.Assignment
		ws.frags.Build(asg)
		ws.states = rta.ResetProcStates(ws.states, m, 0)
		for q, list := range asg.Procs {
			ws.states[q].Load(list)
		}
		for idx := range asg.Set {
			frags := ws.frags.Of(idx)
			// Certified job-response bound: offsets of the tail plus its
			// RTA response on its processor.
			tail := frags[len(frags)-1]
			list, pos := asg.Procs[tail.Proc], tail.Pos
			rt, ok := ws.states[tail.Proc].ResponseAt(pos, tail.Sub.Deadline)
			if !ok {
				errs[s] = fmt.Errorf("verified partition fails RTA re-check")
				return
			}
			base := asg.Set[idx].T - asg.Set[idx].Deadline()
			bound := tail.Sub.Offset - base + rt // certified worst job response
			observed := rep.WorstResponse[idx]
			if bound <= 0 || observed <= 0 {
				continue
			}
			out = append(out, sample{
				ratio: float64(observed) / float64(bound),
				split: len(frags) > 1,
				last:  pos == len(list)-1,
			})
		}
		perSet[s] = out
	})
	if parErr != nil {
		return nil, fmt.Errorf("analysis-pessimism: %w", parErr)
	}
	if err := firstError(errs); err != nil {
		return nil, fmt.Errorf("analysis-pessimism: %w", err)
	}

	groups := map[string][]float64{}
	for _, row := range perSet {
		for _, smp := range row {
			key := "non-split"
			if smp.split {
				key = "split"
			}
			groups[key] = append(groups[key], smp.ratio)
			if smp.last {
				groups["lowest-priority"] = append(groups["lowest-priority"], smp.ratio)
			}
			groups["all"] = append(groups["all"], smp.ratio)
		}
	}
	t := Table{
		ID:     "analysis-pessimism",
		Title:  fmt.Sprintf("observed worst response ÷ certified bound, RM-TS on M=%d, %d sets", m, sets),
		Header: []string{"task class", "n", "mean", "median", "p95", "max"},
		Notes: []string{
			"ratios must never exceed 1 (the bound is sound); lowest-priority tasks approach 1 (synchronous critical instant)",
		},
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := groups[k]
		t.Rows = append(t.Rows, []string{
			k,
			fmt.Sprintf("%d", len(xs)),
			fmt.Sprintf("%.3f", stats.Mean(xs)),
			fmt.Sprintf("%.3f", stats.Quantile(xs, 0.5)),
			fmt.Sprintf("%.3f", stats.Quantile(xs, 0.95)),
			fmt.Sprintf("%.3f", stats.Max(xs)),
		})
	}
	cfg.progressf("analysis-pessimism: %d sets done", sets)
	return []Table{t}, nil
}

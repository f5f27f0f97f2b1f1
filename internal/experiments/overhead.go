package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/xrand"
)

// OverheadSensitivity (E13) probes the cost the related-work debate
// attributes to migration-based schemes (§I: Pfair/LLREF/EKG "incur much
// higher context-switch overhead"): RM-TS partitions are executed with
// per-dispatch and per-migration charges under three provisioning
// strategies:
//
//  1. naive — partition at zero overhead (the paper's model). Because
//     MaxSplit packs to exact bottlenecks, even 1 tick of charge causes
//     misses.
//  2. task-inflated — the folklore mitigation: inflate every C by a
//     per-job budget before packing, execute the original demand. This
//     FAILS: MaxSplit re-absorbs the inflation into bottleneck-tight
//     fragments, leaving no margin where the charges land.
//  3. overhead-aware — the sound fix implemented in
//     partition/overhead.go: surcharge every fragment term inside the
//     admission RTA by 3×cost. Misses must be zero.
func OverheadSensitivity(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE13))
	m := 4
	um := 0.85
	sets := cfg.setsPerPoint()
	if cfg.Quick && sets > 30 {
		sets = 30
	}
	overheads := []task.Time{0, 1, 2, 5, 10}
	if cfg.Quick {
		overheads = []task.Time{0, 2, 10}
	}
	menu := gen.ChoicePeriods{Values: []task.Time{200, 400, 500, 800, 1000, 2000, 4000}}
	alg := partition.NewRMTS(nil)

	t := Table{
		ID:     "overhead-sensitivity",
		Title:  fmt.Sprintf("M=%d, U_M=%.2f, periods 200–4000 ticks, %d sets; dispatch+migration overhead in ticks", m, um, sets),
		Header: []string{"overhead", "naive miss-sets", "task-inflated: accepted / miss-sets", "overhead-aware: accepted / miss-sets"},
		Notes: []string{
			"naive = zero-overhead packing; task-inflated = C += 2×ov per job before packing, original demand executed",
			"overhead-aware = per-fragment 3×ov surcharge inside the admission RTA (partition/overhead.go); its miss count must be 0",
		},
	}
	for _, ov := range overheads {
		ov := ov
		aware := &partition.RMTS{Surcharge: 3 * ov}
		type outcome struct {
			naiveMiss           bool
			inflAcc, inflMiss   bool
			awareAcc, awareMiss bool
		}
		perSet := make([]outcome, sets)
		errs := make([]error, sets)
		parErr := cfg.parEach(r.Int63(), sets, func(s int, r *rand.Rand, ws *Workspace) {
			ts, err := gen.TaskSetInto(r, gen.Config{TargetU: um * float64(m), UMin: 0.05, UMax: 0.5, Periods: menu}, ws.Gen())
			if err != nil {
				errs[s] = err
				return
			}
			simWithCharges := func(asg *task.Assignment) bool {
				rep, err := sim.Simulate(asg, sim.Options{
					StopOnMiss: true, HorizonCap: 200_000,
					DispatchOverhead: ov, MigrationOverhead: ov,
				})
				if err != nil {
					errs[s] = err
					return true
				}
				return rep.Ok()
			}
			// Each partitioning result borrows the workspace and is fully
			// consumed (simulated or deflated) before the next Partition call.
			var o outcome
			if res := ws.Partition(alg, ts, m); res.OK && !simWithCharges(res.Assignment) {
				o.naiveMiss = true
			}
			// Task-level inflation (the folklore mitigation).
			inflated := ts.Clone()
			for i := range inflated {
				inflated[i].C += 2 * ov
				if inflated[i].C > inflated[i].T {
					inflated[i].C = inflated[i].T
				}
			}
			if resP := ws.Partition(alg, inflated, m); resP.OK {
				o.inflAcc = true
				if !simWithCharges(deflateAssignment(resP.Assignment, ts, ws)) {
					o.inflMiss = true
				}
			}
			// Overhead-aware admission.
			if resA := ws.Partition(aware, ts, m); resA.OK {
				o.awareAcc = true
				if !simWithCharges(resA.Assignment) {
					o.awareMiss = true
				}
			}
			perSet[s] = o
		})
		if parErr != nil {
			return nil, fmt.Errorf("overhead-sensitivity: %w", parErr)
		}
		if err := firstError(errs); err != nil {
			return nil, fmt.Errorf("overhead-sensitivity: %w", err)
		}
		naiveMissSets := 0
		inflAccepted, inflMissSets := 0, 0
		awareAccepted, awareMissSets := 0, 0
		for _, o := range perSet {
			if o.naiveMiss {
				naiveMissSets++
			}
			if o.inflAcc {
				inflAccepted++
			}
			if o.inflMiss {
				inflMissSets++
			}
			if o.awareAcc {
				awareAccepted++
			}
			if o.awareMiss {
				awareMissSets++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", ov),
			fmt.Sprintf("%d/%d", naiveMissSets, sets),
			fmt.Sprintf("%d/%d / %d", inflAccepted, sets, inflMissSets),
			fmt.Sprintf("%d/%d / %d", awareAccepted, sets, awareMissSets),
		})
		cfg.progressf("overhead-sensitivity: overhead=%d done", ov)
	}
	return []Table{t}, nil
}

// deflateAssignment rebuilds the provisioned assignment with each task's
// execution restored to its original (smaller) demand: the difference is
// removed from the task's fragments starting at the tail, never dropping a
// fragment below 1 tick. Synthetic deadlines and offsets stay as
// provisioned (conservative). The input assignment is not modified; the
// result borrows ws (its set, assignment and fragment index) until the
// next deflation.
func deflateAssignment(asg *task.Assignment, original task.Set, ws *Workspace) *task.Assignment {
	sortedOrig := append(ws.deflOrig[:0], original...)
	sortedOrig.SortDM()
	newSet := append(ws.deflSet[:0], asg.Set...)
	ws.deflOrig, ws.deflSet = sortedOrig, newSet
	out := &ws.deflated
	out.Reset(newSet, asg.M())
	copy(out.PreAssigned, asg.PreAssigned)
	ws.frags.Build(asg)
	for idx := range asg.Set {
		// Positions align: both sets were RM-sorted with stable ties from
		// the same base order, and inflation does not change periods.
		reduce := asg.Set[idx].C - sortedOrig[idx].C
		if reduce < 0 {
			reduce = 0
		}
		frags := ws.frags.Of(idx)
		var sum task.Time
		for k := len(frags) - 1; k >= 0; k-- {
			s := frags[k].Sub
			cut := reduce
			if limit := s.C - 1; cut > limit {
				cut = limit
			}
			s.C -= cut
			reduce -= cut
			sum += s.C
			out.Add(frags[k].Proc, s)
		}
		// If fragments could not absorb the whole reduction (each is
		// already at 1 tick), keep the residual demand: the simulation is
		// then conservatively over-loaded for that task.
		newSet[idx].C = sum
	}
	return out
}

// AdmissionAblation (E14) isolates the two ingredients of the paper's
// average-case gain: the exact schedulability test and task splitting.
// Strict first-fit partitioning is run with three admission tests of
// increasing precision (L&L utilization ≤ Θ, hyperbolic bound, exact RTA),
// and RM-TS adds splitting on top of exact RTA. Expected ordering at high
// U_M: LL < HB < RTA < RTA+splitting — each mechanism buys a visible slice
// of the gap, with splitting decisive near 100%.
func AdmissionAblation(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE14))
	m := 8
	points := seq(0.60, 1.00, 0.05)
	if cfg.Quick {
		m = 4
		points = seq(0.65, 0.95, 0.15)
	}
	algos := []algoSpec{
		{"FF[LL]", partition.FirstFit{Admission: partition.AdmitLL}},
		{"FF[HB]", partition.FirstFit{Admission: partition.AdmitHyperbolic}},
		{"FF[HT]", partition.FirstFit{Admission: partition.AdmitHanTyan}},
		{"FF[RTA]", partition.FirstFit{Admission: partition.AdmitRTA}},
		{"RM-TS (RTA+split)", partition.NewRMTS(nil)},
	}
	ratios := make([][]float64, len(points))
	for i, um := range points {
		target := um * float64(m)
		row, err := cfg.acceptance(r.Int63(), cfg.setsPerPoint(), m, func(_ int, r *rand.Rand, sc *gen.Scratch) (task.Set, error) {
			return gen.TaskSetInto(r, gen.Config{TargetU: target, UMin: 0.05, UMax: 0.6}, sc)
		}, algos)
		if err != nil {
			return nil, fmt.Errorf("admission-ablation: %w", err)
		}
		ratios[i] = row
		cfg.progressf("admission-ablation: U_M=%.2f done", um)
	}
	return []Table{sweepTable("admission-ablation",
		fmt.Sprintf("M=%d, U_i∈[0.05,0.6], %d sets/point — what exactness and splitting each contribute", m, cfg.setsPerPoint()),
		points, algos, ratios,
		"expected ordering: FF[LL] ≤ FF[HB] ≤ FF[RTA] ≤ RM-TS at every point; Han-Tyan (HT) sits between HB and RTA on average",
	)}, nil
}

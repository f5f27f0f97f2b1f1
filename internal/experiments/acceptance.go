package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/bounds"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/xrand"
)

// Per-sweep parameter helpers. Each sweep's processor count, point grid and
// task-set generator live here — and ONLY here — so that ReplaySample (see
// replay.go) regenerates a sample under exactly the parameters the sweep
// used; the sweep bodies and the replay registry can never drift apart.

func generalParams(quick bool) (m int, points []float64) {
	if quick {
		return 4, seq(0.65, 0.95, 0.10)
	}
	return 8, seq(0.60, 1.00, 0.025)
}

func generalSet(r *rand.Rand, sc *gen.Scratch, target float64) (task.Set, error) {
	return gen.TaskSetInto(r, gen.Config{TargetU: target, UMin: 0.05, UMax: 0.95}, sc)
}

func lightParams(quick bool) (m int, points []float64) {
	if quick {
		return 4, seq(0.65, 0.95, 0.10)
	}
	return 8, seq(0.60, 1.00, 0.025)
}

func lightSet(r *rand.Rand, sc *gen.Scratch, target float64) (task.Set, error) {
	return gen.TaskSetInto(r, gen.Config{TargetU: target, UMin: 0.05, UMax: 0.40}, sc)
}

func harmonicParams(quick bool) (m int, points []float64) {
	if quick {
		return 4, seq(0.75, 1.00, 0.125)
	}
	return 8, seq(0.70, 1.00, 0.02)
}

func harmonicSet(r *rand.Rand, sc *gen.Scratch, target float64) (task.Set, error) {
	return gen.HarmonicSetInto(r, gen.HarmonicConfig{
		TargetU: target, UMin: 0.05, UMax: 0.35, Chains: 1,
		BasePeriods: []task.Time{256},
	}, sc)
}

// procsSweepUM is the fixed normalized utilization of procs-sweep (E7).
const procsSweepUM = 0.93

func procsParams(quick bool) (ms []int) {
	if quick {
		return []int{2, 4, 8}
	}
	return []int{2, 4, 8, 16, 32}
}

func procsSet(r *rand.Rand, sc *gen.Scratch, target float64) (task.Set, error) {
	return gen.TaskSetInto(r, gen.Config{TargetU: target, UMin: 0.05, UMax: 0.60}, sc)
}

func heavyParams(quick bool) (m int, um float64, shares []float64) {
	if quick {
		return 4, 0.90, []float64{0, 0.4, 0.8}
	}
	return 8, 0.94, []float64{0, 0.2, 0.4, 0.6, 0.8}
}

func heavySet(r *rand.Rand, sc *gen.Scratch, target, share float64) (task.Set, error) {
	return gen.MixedSetInto(r, gen.MixedConfig{
		TargetU:    target,
		HeavyShare: share,
		HeavyMin:   0.5, HeavyMax: 0.95,
		LightMin: 0.05, LightMax: 0.30,
	}, sc)
}

func tailParams(quick bool) (m int, ums []float64) {
	m = 8
	if quick {
		m = 4
	}
	return m, []float64{0.72, 0.78, 0.84, 0.90}
}

func tailSet(r *rand.Rand, sc *gen.Scratch, target float64) (task.Set, error) {
	return gen.TaskSetInto(r, gen.Config{TargetU: target, UMin: 0.05, UMax: 0.5}, sc)
}

// AcceptanceGeneral (E2) sweeps normalized utilization for general task
// sets (individual utilizations up to 0.95) on M processors, comparing
// RM-TS against SPA2 and strict first-fit partitioning. Expected shape:
// SPA2's curve collapses right after the L&L bound (≈70%); RM-TS stays
// high well beyond it; strict partitioning trails both at high U_M.
func AcceptanceGeneral(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE2))
	m, points := generalParams(cfg.Quick)
	algos := defaultAlgos()
	bases := pointBases(r, len(points))
	ratios, err := cfg.sweepRows("acceptance-general", len(points), func(pc Config, i int) ([]float64, error) {
		target := points[i] * float64(m)
		row, err := pc.acceptance(bases[i], cfg.setsPerPoint(), m, func(_ int, r *rand.Rand, sc *gen.Scratch) (task.Set, error) {
			return generalSet(r, sc, target)
		}, algos)
		if err != nil {
			return nil, err
		}
		cfg.progressf("acceptance-general: U_M=%.3f done", points[i])
		return row, nil
	})
	tbl := sweepTable("acceptance-general", fmt.Sprintf("M=%d, U_i∈[0.05,0.95], periods log-uniform [100,10000], %d sets/point", m, cfg.setsPerPoint()),
		points[:len(ratios)], algos, ratios,
		"expected: RM-TS ≥ SPA2 everywhere; SPA2 ≈ 0 above Θ≈0.70; RM-TS degrades gracefully towards 1.0",
	)
	if err != nil {
		return []Table{tbl}, fmt.Errorf("acceptance-general: %w", err)
	}
	return []Table{tbl}, nil
}

// AcceptanceLight (E3) is the light-task-set comparison: every U_i ≤ 0.40
// (≈ Θ/(1+Θ)), where RM-TS/light's Theorem 8 applies. Expected shape:
// RM-TS/light ≈ RM-TS, both far above SPA1/SPA2 past the L&L bound.
func AcceptanceLight(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE3))
	m, points := lightParams(cfg.Quick)
	algos := lightAlgos()
	bases := pointBases(r, len(points))
	ratios, err := cfg.sweepRows("acceptance-light", len(points), func(pc Config, i int) ([]float64, error) {
		target := points[i] * float64(m)
		row, err := pc.acceptance(bases[i], cfg.setsPerPoint(), m, func(_ int, r *rand.Rand, sc *gen.Scratch) (task.Set, error) {
			return lightSet(r, sc, target)
		}, algos)
		if err != nil {
			return nil, err
		}
		cfg.progressf("acceptance-light: U_M=%.3f done", points[i])
		return row, nil
	})
	tbl := sweepTable("acceptance-light", fmt.Sprintf("M=%d, U_i∈[0.05,0.40] (light), %d sets/point", m, cfg.setsPerPoint()),
		points[:len(ratios)], algos, ratios,
		"expected: RM-TS/light ≈ RM-TS; SPA1/SPA2 cap at Θ≈0.70",
	)
	if err != nil {
		return []Table{tbl}, fmt.Errorf("acceptance-light: %w", err)
	}
	return []Table{tbl}, nil
}

// AcceptanceHarmonic (E4) instantiates the 100% bound: light harmonic task
// sets swept up to U_M = 1. Expected shape: RM-TS/light accepts essentially
// everything up to ≈ 1 − 1/T_min (integer-time quantization), while the
// SPA baselines still cap at the L&L bound — they cannot exploit the
// harmonic structure.
func AcceptanceHarmonic(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE4))
	m, points := harmonicParams(cfg.Quick)
	algos := lightAlgos()
	bases := pointBases(r, len(points))
	ratios, err := cfg.sweepRows("acceptance-harmonic", len(points), func(pc Config, i int) ([]float64, error) {
		target := points[i] * float64(m)
		row, err := pc.acceptance(bases[i], cfg.setsPerPoint(), m, func(_ int, r *rand.Rand, sc *gen.Scratch) (task.Set, error) {
			return harmonicSet(r, sc, target)
		}, algos)
		if err != nil {
			return nil, err
		}
		cfg.progressf("acceptance-harmonic: U_M=%.3f done", points[i])
		return row, nil
	})
	tbl := sweepTable("acceptance-harmonic", fmt.Sprintf("M=%d, harmonic single chain (base 256), light tasks, %d sets/point", m, cfg.setsPerPoint()),
		points[:len(ratios)], algos, ratios,
		"Λ(τ) = 100% (harmonic bound); Theorem 8 guarantees RM-TS/light ≈ 1.0 up to U_M ≈ 1 − 1/T_min",
		"SPA1/SPA2 cannot exploit harmonicity: they cap at Θ ≈ 0.70",
	)
	if err != nil {
		return []Table{tbl}, fmt.Errorf("acceptance-harmonic: %w", err)
	}
	return []Table{tbl}, nil
}

// AcceptanceKChains (E5) evaluates the §V instantiations: task sets whose
// periods form exactly K ∈ {2, 3} harmonic chains. The effective RM-TS
// bound is min(K(2^{1/K}−1), 2Θ/(1+Θ)): ≈81.8% for K=2 (capped) and 77.9%
// for K=3. Expected: 100% acceptance at or below the bound (minus the
// integer-time margin), graceful decay above; SPA2 still capped at Θ.
func AcceptanceKChains(cfg Config) ([]Table, error) {
	var tables []Table
	for _, k := range []int{2, 3} {
		r := rand.New(xrand.New(cfg.Seed ^ int64(0xE5+k)))
		m := 8
		points := seq(0.70, 0.95, 0.025)
		if cfg.Quick {
			m = 4
			points = seq(0.70, 0.90, 0.10)
		}
		algos := []algoSpec{
			{"RM-TS(HC)", partition.NewRMTS(bounds.HarmonicChain{Minimal: true})},
			{"SPA2", partition.SPA2{}},
		}
		id := fmt.Sprintf("acceptance-kchains/K=%d", k)
		bases := pointBases(r, len(points))
		// The note is the bound of the last completed point's last sample in
		// sample order. Only that sample writes lastBound, and it is read
		// after the fan-out has joined, so the note does not depend on which
		// worker finishes last.
		var boundVal float64
		ratios, err := cfg.sweepRows(id, len(points), func(pc Config, i int) ([]float64, error) {
			target := points[i] * float64(m)
			n := cfg.setsPerPoint()
			var lastBound float64
			row, err := pc.acceptance(bases[i], n, m, func(s int, r *rand.Rand, sc *gen.Scratch) (task.Set, error) {
				ts, err := gen.HarmonicSetInto(r, gen.HarmonicConfig{
					TargetU: target, UMin: 0.05, UMax: 0.40, Chains: k,
				}, sc)
				if err != nil {
					return nil, err
				}
				if s == n-1 {
					lastBound = bounds.EffectiveRMTS(bounds.HarmonicChain{Minimal: true}, ts)
				}
				return ts, nil
			}, algos)
			if err != nil {
				return nil, err
			}
			boundVal = lastBound
			cfg.progressf("acceptance-kchains K=%d: U_M=%.3f done", k, points[i])
			return row, nil
		})
		tables = append(tables, sweepTable(
			id,
			fmt.Sprintf("M=%d, %d harmonic chains, light tasks, %d sets/point", m, k, cfg.setsPerPoint()),
			points[:len(ratios)], algos, ratios,
			fmt.Sprintf("effective RM-TS bound min(K-bound, 2Θ/(1+Θ)) ≈ %s for this set size", fmtPct(boundVal)),
		))
		if err != nil {
			return tables, fmt.Errorf("acceptance-kchains: %w", err)
		}
	}
	return tables, nil
}

// ProcsSweep (E7) fixes U_M = 0.93 (well above the L&L bound, near the
// packing limit) and sweeps the processor count. Expected: RM-TS's
// acceptance grows with M (more processors smooth the bin-packing), SPA2
// stays at zero (0.93 > Θ), strict first-fit trails RM-TS at every M.
func ProcsSweep(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE7))
	um := procsSweepUM
	ms := procsParams(cfg.Quick)
	algos := defaultAlgos()
	header := []string{"M"}
	for _, a := range algos {
		header = append(header, a.name)
	}
	t := Table{
		ID:     "procs-sweep",
		Title:  fmt.Sprintf("U_M=%.2f, U_i∈[0.05,0.6], %d sets/point", um, cfg.setsPerPoint()),
		Header: header,
		Notes:  []string{"expected: RM-TS improves with M; SPA2 pinned at 0 (0.93 > Θ); P-RM-FF trails RM-TS"},
	}
	bases := pointBases(r, len(ms))
	rows, err := cfg.sweepRows("procs-sweep", len(ms), func(pc Config, i int) ([]float64, error) {
		m := ms[i]
		row, err := pc.acceptance(bases[i], cfg.setsPerPoint(), m, func(_ int, r *rand.Rand, sc *gen.Scratch) (task.Set, error) {
			return procsSet(r, sc, um*float64(m))
		}, algos)
		if err != nil {
			return nil, err
		}
		cfg.progressf("procs-sweep: M=%d done", m)
		return row, nil
	})
	for i, row := range rows {
		cells := []string{fmt.Sprintf("%d", ms[i])}
		for _, v := range row {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		t.Rows = append(t.Rows, cells)
	}
	if err != nil {
		return []Table{t}, fmt.Errorf("procs-sweep: %w", err)
	}
	return []Table{t}, nil
}

// HeavySweep (E8) varies the share of total utilization carried by heavy
// tasks (U > Θ/(1+Θ)) at fixed U_M, exercising RM-TS's pre-assignment
// phase. It also reports the mean number of pre-assigned tasks. Expected:
// RM-TS stays robust as the heavy share grows; strict first-fit suffers.
func HeavySweep(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE8))
	m, um, shares := heavyParams(cfg.Quick)
	rmts := partition.NewRMTS(nil)
	algos := []algoSpec{
		{"RM-TS", rmts},
		{"SPA2", partition.SPA2{}},
		{"P-RM-FF", partition.FirstFitRTA{}},
	}
	header := []string{"heavy share"}
	for _, a := range algos {
		header = append(header, a.name)
	}
	header = append(header, "mean #pre-assigned (RM-TS)")
	t := Table{
		ID:     "heavy-sweep",
		Title:  fmt.Sprintf("M=%d, U_M=%.2f, heavy U∈[0.5,0.95], light U∈[0.05,0.3], %d sets/point", m, um, cfg.setsPerPoint()),
		Header: header,
		Notes:  []string{"expected: RM-TS robust across shares; pre-assignment count grows with the share"},
	}
	bases := pointBases(r, len(shares))
	rows, err := cfg.sweepRows("heavy-sweep", len(shares), func(pc Config, p int) ([]float64, error) {
		share := shares[p]
		n := cfg.setsPerPoint()
		type outcome struct {
			ok  []bool
			pre int
		}
		perSet := make([]outcome, n)
		errs := make([]error, n)
		if err := pc.parEach(bases[p], n, func(s int, r *rand.Rand, ws *Workspace) {
			ts, err := heavySet(r, ws.Gen(), um*float64(m), share)
			if err != nil {
				errs[s] = err
				return
			}
			o := outcome{ok: make([]bool, len(algos))}
			for i, a := range algos {
				res := ws.Partition(a.alg, ts, m)
				o.ok[i] = res.OK && res.Guaranteed
				if i == 0 {
					o.pre = res.NumPreAssigned
				}
			}
			perSet[s] = o
		}); err != nil {
			return nil, err
		}
		if err := firstError(errs); err != nil {
			return nil, err
		}
		accepted := make([]int, len(algos))
		preSum := 0
		for _, o := range perSet {
			if o.ok == nil {
				continue
			}
			for i, ok := range o.ok {
				if ok {
					accepted[i]++
				}
			}
			preSum += o.pre
		}
		row := make([]float64, 0, len(algos)+1)
		for _, k := range accepted {
			row = append(row, float64(k)/float64(n))
		}
		row = append(row, float64(preSum)/float64(n))
		cfg.progressf("heavy-sweep: share=%.1f done", share)
		return row, nil
	})
	for i, row := range rows {
		cells := []string{fmt.Sprintf("%.1f", shares[i])}
		for _, v := range row[:len(row)-1] {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		cells = append(cells, fmt.Sprintf("%.2f", row[len(row)-1]))
		t.Rows = append(t.Rows, cells)
	}
	if err != nil {
		return []Table{t}, fmt.Errorf("heavy-sweep: %w", err)
	}
	return []Table{t}, nil
}

// UtilizationTail (E11) quantifies the paper's §I claim that the
// threshold-based algorithm of [16] "never utilizes more than the
// worst-case bound": among sets with U_M above Θ, it counts how many each
// algorithm schedules with a guarantee.
func UtilizationTail(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE11))
	m, ums := tailParams(cfg.Quick)
	algos := defaultAlgos()
	header := []string{"U_M"}
	for _, a := range algos {
		header = append(header, a.name+" accepted")
	}
	t := Table{
		ID:     "utilization-tail",
		Title:  fmt.Sprintf("guaranteed-schedulable sets above the L&L bound, M=%d, %d sets/point", m, cfg.setsPerPoint()),
		Header: header,
		Notes:  []string{"expected: SPA2 = 0 everywhere (its guarantee caps at Θ); RM-TS > 0 well past Θ"},
	}
	bases := pointBases(r, len(ums))
	rows, err := cfg.sweepRows("utilization-tail", len(ums), func(pc Config, p int) ([]float64, error) {
		um := ums[p]
		n := cfg.setsPerPoint()
		perSet := make([][]bool, n)
		errs := make([]error, n)
		if err := pc.parEach(bases[p], n, func(s int, r *rand.Rand, ws *Workspace) {
			ts, err := tailSet(r, ws.Gen(), um*float64(m))
			if err != nil {
				errs[s] = err
				return
			}
			theta := bounds.LL(len(ts))
			if ts.NormalizedUtilization(m) <= theta {
				return // only count sets genuinely above the bound
			}
			row := make([]bool, len(algos))
			for i, a := range algos {
				res := ws.Partition(a.alg, ts, m)
				row[i] = res.OK && res.Guaranteed
			}
			perSet[s] = row
		}); err != nil {
			return nil, err
		}
		if err := firstError(errs); err != nil {
			return nil, err
		}
		row := make([]float64, len(algos))
		for _, ok := range perSet {
			for i, v := range ok {
				if v {
					row[i]++
				}
			}
		}
		cfg.progressf("utilization-tail: U_M=%.2f done", um)
		return row, nil
	})
	for i, row := range rows {
		cells := []string{fmt.Sprintf("%.2f", ums[i])}
		for _, k := range row {
			cells = append(cells, fmt.Sprintf("%d/%d", int(k), cfg.setsPerPoint()))
		}
		t.Rows = append(t.Rows, cells)
	}
	if err != nil {
		return []Table{t}, fmt.Errorf("utilization-tail: %w", err)
	}
	return []Table{t}, nil
}

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/xrand"
)

// Breakdown (E6) measures breakdown utilization: for each random task-set
// *shape* (fixed utilization proportions and periods), the largest U_M at
// which the algorithm still accepts, found by bisection on a global
// execution-time scale factor. The paper's motivation (§I): on
// uniprocessors, exact-analysis RMS breaks down around 88% on average
// versus the 69% worst-case bound; RM-TS inherits that gap on
// multiprocessors, while SPA2's breakdown pins at the bound.
func Breakdown(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE6))
	ms := []int{4, 8, 16}
	sets := cfg.setsPerPoint() / 2
	if sets < 8 {
		sets = 8
	}
	if cfg.Quick {
		ms = []int{4}
		if sets > 20 {
			sets = 20
		}
	}
	algos := []algoSpec{
		{"RM-TS", partition.NewRMTS(nil)},
		{"RM-TS/light", partition.RMTSLight{}},
		{"SPA2", partition.SPA2{}},
		{"P-RM-FF", partition.FirstFitRTA{}},
	}
	t := Table{
		ID:     "breakdown",
		Title:  fmt.Sprintf("mean breakdown U_M over %d set shapes (U_i∈[0.05,0.4] at full scale)", sets),
		Header: []string{"M", "algorithm", "breakdown U_M mean (min–max)"},
		Notes: []string{
			"bisection on a global C scale factor, 12 iterations, acceptance = OK ∧ Guaranteed",
			"expected: RM-TS ≫ Θ≈0.70 (uniprocessor analogy: ≈88%); SPA2 pinned at ≈Θ",
		},
	}
	for _, m := range ms {
		m := m
		perSet := make([][]float64, sets)
		errs := make([]error, sets)
		parErr := cfg.parEach(r.Int63(), sets, func(s int, r *rand.Rand, ws *Workspace) {
			shape, err := gen.TaskSetInto(r, gen.Config{
				TargetU: float64(m), // full scale = U_M 1.0
				UMin:    0.05, UMax: 0.40,
			}, ws.Gen())
			if err != nil {
				errs[s] = err
				return
			}
			// λ ≤ 1 never raises a C, so a light shape stays light at every
			// probe and RM-TS walks RM-TS/light's bisection step for step.
			row := make([]float64, len(algos))
			eachAlgo(algos, shape, func(i int) {
				row[i] = breakdownOf(ws, algos[i].alg, shape, m)
			}, func(i, j int) { row[i] = row[j] })
			perSet[s] = row
		})
		if parErr != nil {
			return nil, fmt.Errorf("breakdown: %w", parErr)
		}
		if err := firstError(errs); err != nil {
			return nil, fmt.Errorf("breakdown: %w", err)
		}
		for i, a := range algos {
			samples := make([]float64, 0, sets)
			for _, row := range perSet {
				if row != nil {
					samples = append(samples, row[i])
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", m), a.name, meanAndRange(samples),
			})
		}
		cfg.progressf("breakdown: M=%d done", m)
	}
	return []Table{t}, nil
}

// breakdownOf bisects the largest scale λ ∈ (0, 1] at which alg accepts the
// scaled shape (C_i ← max(1, round(λ·C_i)), capped at the task's deadline;
// T and D are kept) and returns the achieved U_M. Acceptance is not
// perfectly monotone in λ because of integer rounding and packing
// heuristics, so the bisection brackets the last accepted scale and the
// achieved utilization is recomputed from the accepted integer set.
//
// A probe whose scaled U_M exceeds 1 is refused without partitioning: a
// guaranteed partition keeps every processor at U_q ≤ 1, so no algorithm
// accepts it (the 1e-9 margin absorbs float summation order).
//
// Cross-scale reuse: integer rounding makes nearby λ probes collide on the
// exact same scaled C-vector, and the partitioners are deterministic
// functions of (set, m), so identical vectors have identical verdicts. The
// ≤13 probes of one bisection are memoized on the exact C-vector (the memo
// is per-(shape, alg) call, so algorithm and m never mix); a hit skips the
// whole partitioning run.
func breakdownOf(ws *Workspace, alg partition.Algorithm, shape task.Set, m int) float64 {
	n := len(shape)
	scaled := make(task.Set, n)
	ws.memoC = ws.memoC[:0]
	ws.memoOK = ws.memoOK[:0]
	accepts := func(lambda float64) (bool, float64) {
		for i, tk := range shape {
			c := task.Time(float64(tk.C)*lambda + 0.5)
			if c < 1 {
				c = 1
			}
			if d := tk.Deadline(); c > d {
				c = d
			}
			tk.C = c
			scaled[i] = tk
		}
		u := scaled.NormalizedUtilization(m)
		if u > 1+1e-9 {
			cBreakdownOverCapacity.Inc()
			return false, u
		}
		for e := range ws.memoOK {
			key := ws.memoC[e*n : (e+1)*n]
			hit := true
			for i := range key {
				if key[i] != scaled[i].C {
					hit = false
					break
				}
			}
			if hit {
				if obs.On() {
					cCrossScaleMemoHits.Inc()
				}
				return ws.memoOK[e], u
			}
		}
		res := ws.Partition(alg, scaled, m)
		ok := res.OK && res.Guaranteed
		for i := range scaled {
			ws.memoC = append(ws.memoC, scaled[i].C)
		}
		ws.memoOK = append(ws.memoOK, ok)
		return ok, u
	}
	lo, hi := 0.0, 1.0
	best := 0.0
	if ok, u := accepts(1.0); ok {
		return u
	}
	for iter := 0; iter < 12; iter++ {
		mid := (lo + hi) / 2
		if ok, u := accepts(mid); ok {
			lo = mid
			if u > best {
				best = u
			}
		} else {
			hi = mid
		}
	}
	return best
}

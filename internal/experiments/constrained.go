package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/xrand"
)

// ConstrainedDeadlines (E16) evaluates the constrained-deadline extension
// (D ≤ T, deadline-monotonic priorities — beyond the paper's implicit
// model, enabled by the RTA-based admission): acceptance of RM-TS (DM
// order) and strict P-DM-FF as the deadline tightness factor D/T shrinks,
// at fixed U_M. The utilization-bound algorithms (SPA) are inapplicable by
// construction and excluded. Expected: monotone decline with tightness;
// splitting retains an edge over strict partitioning throughout.
func ConstrainedDeadlines(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE16))
	m := 8
	um := 0.85
	fracs := [][2]float64{{1.0, 1.0}, {0.9, 1.0}, {0.8, 0.9}, {0.7, 0.8}, {0.6, 0.7}, {0.5, 0.6}, {0.4, 0.5}}
	if cfg.Quick {
		m = 4
		fracs = [][2]float64{{1.0, 1.0}, {0.8, 0.9}, {0.5, 0.6}}
	}
	algos := []algoSpec{
		{"RM-TS (DM)", partition.NewRMTS(nil)},
		{"RM-TS/light (DM)", partition.RMTSLight{}},
		{"P-DM-FF", partition.FirstFitRTA{}},
		{"EDF-TS", partition.EDFTS{}},
	}
	header := []string{"D/T range"}
	for _, a := range algos {
		header = append(header, a.name)
	}
	t := Table{
		ID:     "constrained-deadlines",
		Title:  fmt.Sprintf("M=%d, U_M=%.2f, U_i∈[0.05,0.4], deadlines tightened to D = f·T, %d sets/point", m, um, cfg.setsPerPoint()),
		Header: header,
		Notes: []string{
			"extension beyond the paper's implicit-deadline model: DM priorities + exact RTA; bounds do not apply",
			"expected: acceptance monotone in f; splitting (RM-TS) ≥ strict partitioning at every tightness",
		},
	}
	for _, f := range fracs {
		f := f
		n := cfg.setsPerPoint()
		perSet := make([][]bool, n)
		errs := make([]error, n)
		parErr := cfg.parEach(r.Int63(), n, func(s int, r *rand.Rand, ws *Workspace) {
			base, err := gen.TaskSetInto(r, gen.Config{TargetU: um * float64(m), UMin: 0.05, UMax: 0.4}, ws.Gen())
			if err != nil {
				errs[s] = err
				return
			}
			ts := base
			if f[0] < 1.0 || f[1] < 1.0 {
				// ConstrainInto writes to the scratch's separate output
				// buffer, so base (which aliases the set buffer) stays valid.
				ts, err = gen.ConstrainInto(r, base, f[0], f[1], ws.Gen())
				if err != nil {
					errs[s] = err
					return
				}
			}
			row := make([]bool, len(algos))
			eachAlgo(algos, ts, func(i int) {
				res := ws.Partition(algos[i].alg, ts, m)
				row[i] = res.OK && res.Guaranteed
			}, func(i, j int) { row[i] = row[j] })
			perSet[s] = row
		})
		if parErr != nil {
			return nil, fmt.Errorf("constrained-deadlines: %w", parErr)
		}
		if err := firstError(errs); err != nil {
			return nil, fmt.Errorf("constrained-deadlines: %w", err)
		}
		accepted := make([]int, len(algos))
		for _, row := range perSet {
			for i, ok := range row {
				if ok {
					accepted[i]++
				}
			}
		}
		label := fmt.Sprintf("[%.1f,%.1f]", f[0], f[1])
		if f[0] == 1.0 && f[1] == 1.0 {
			label = "1.0 (implicit)"
		}
		row := []string{label}
		for _, k := range accepted {
			row = append(row, fmt.Sprintf("%.3f", float64(k)/float64(n)))
		}
		t.Rows = append(t.Rows, row)
		cfg.progressf("constrained-deadlines: f=%s done", label)
	}
	return []Table{t}, nil
}

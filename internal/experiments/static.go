package experiments

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/task"
)

// BoundsTable (E1) tabulates the closed-form bound instantiations quoted in
// §§I, III and V: the Liu & Layland bound Θ(N) and the derived thresholds
// Θ/(1+Θ) (light-task limit) and 2Θ/(1+Θ) (RM-TS cap), the harmonic-chain
// bounds K(2^{1/K}−1), and T-/R-bound values on example period sets.
func BoundsTable(cfg Config) ([]Table, error) {
	t1 := Table{
		ID:     "bounds-table/theta",
		Title:  "L&L bound and derived thresholds by task count",
		Header: []string{"N", "Θ(N)", "light limit Θ/(1+Θ)", "RM-TS cap 2Θ/(1+Θ)"},
		Notes: []string{
			"paper quotes the N→∞ values: Θ≈69.3%, Θ/(1+Θ)≈40.9%, 2Θ/(1+Θ)≈81.8%",
		},
	}
	for _, n := range []int{1, 2, 3, 4, 5, 8, 10, 16, 32, 64, 1 << 20} {
		label := fmt.Sprintf("%d", n)
		if n == 1<<20 {
			label = "∞"
		}
		t1.Rows = append(t1.Rows, []string{
			label,
			fmtPct(bounds.LL(n)),
			fmtPct(bounds.LightThresholdFor(n)),
			fmtPct(bounds.RMTSCapFor(n)),
		})
	}

	t2 := Table{
		ID:     "bounds-table/kchains",
		Title:  "Harmonic chain bound K(2^{1/K}−1) and its RM-TS instantiation (§V examples)",
		Header: []string{"K", "HC bound", "min(HC, 2Θ/(1+Θ)) for N→∞", "usable as RM-TS bound?"},
		Notes: []string{
			"§V: K=3 → 77.9% < 81.8% usable directly; K=2 → 82.8% > 81.8% capped to 81.8%",
		},
	}
	asympCap := bounds.RMTSCapFor(1 << 20)
	for k := 1; k <= 6; k++ {
		hc := bounds.LL(k)
		eff := hc
		capped := "yes"
		if eff > asympCap {
			eff = asympCap
			capped = "capped"
		}
		t2.Rows = append(t2.Rows, []string{
			fmt.Sprintf("%d", k), fmtPct(hc), fmtPct(eff), capped,
		})
	}

	t3 := Table{
		ID:     "bounds-table/examples",
		Title:  "All implemented D-PUBs on example period sets",
		Header: []string{"periods", "L&L", "HC-min", "T-bound", "R-bound", "best"},
	}
	examples := []struct {
		name    string
		periods []task.Time
	}{
		{"harmonic {4,8,16,32}", []task.Time{4, 8, 16, 32}},
		{"2 chains {4,8,9,27}", []task.Time{4, 8, 9, 27}},
		{"3 chains {4,8,9,27,25}", []task.Time{4, 8, 9, 27, 25}},
		{"near-harmonic {100,199,401}", []task.Time{100, 199, 401}},
		{"generic {7,11,13,17}", []task.Time{7, 11, 13, 17}},
		{"generic {120,150,180,600}", []task.Time{120, 150, 180, 600}},
	}
	for _, ex := range examples {
		ts := make(task.Set, len(ex.periods))
		for i, p := range ex.periods {
			ts[i] = task.Task{C: 1, T: p}
		}
		row := []string{ex.name}
		best := 0.0
		for _, p := range bounds.Portfolio() {
			v := p.Value(ts)
			if v > best {
				best = v
			}
			row = append(row, fmtPct(v))
		}
		row = append(row, fmtPct(best))
		t3.Rows = append(t3.Rows, row)
	}
	cfg.progressf("bounds-table: %d+%d+%d rows", len(t1.Rows), len(t2.Rows), len(t3.Rows))
	return []Table{t1, t2, t3}, nil
}

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/xrand"
)

// FPvsEDF (E15) compares the paper's fixed-priority splitting algorithm
// with partitioned EDF, the strongest strict partitioner (per-processor
// EDF packs bins to exactly 100% for implicit deadlines). Expected shape:
// P-EDF ≥ strict P-RM everywhere (strictly better uniprocessor test), and
// RM-TS ≥ P-EDF through the 0.90–0.95 range (splitting defeats bin-packing
// fragmentation). In the extreme tail (U_M ≳ 0.97) partitioned EDF
// overtakes RM-TS: EDF's uniprocessor test is exact at 100% utilization
// while RM's exact test saturates near its ~96% average breakdown on
// random (non-harmonic) processors — splitting cannot recover capacity the
// fixed-priority scheduler itself cannot certify.
func FPvsEDF(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE15))
	m := 8
	points := seq(0.70, 1.00, 0.025)
	if cfg.Quick {
		m = 4
		points = seq(0.75, 0.95, 0.10)
	}
	algos := []algoSpec{
		{"P-RM-FF", partition.FirstFitRTA{}},
		{"P-EDF-FF", partition.EDFFirstFit{}},
		{"RM-TS", partition.NewRMTS(nil)},
		{"EDF-TS", partition.EDFTS{}},
	}
	ratios := make([][]float64, len(points))
	for i, um := range points {
		target := um * float64(m)
		row, err := cfg.acceptance(r.Int63(), cfg.setsPerPoint(), m, func(_ int, r *rand.Rand, sc *gen.Scratch) (task.Set, error) {
			return gen.TaskSetInto(r, gen.Config{TargetU: target, UMin: 0.05, UMax: 0.7}, sc)
		}, algos)
		if err != nil {
			return nil, fmt.Errorf("fp-vs-edf: %w", err)
		}
		ratios[i] = row
		cfg.progressf("fp-vs-edf: U_M=%.3f done", um)
	}
	return []Table{sweepTable("fp-vs-edf",
		fmt.Sprintf("M=%d, U_i∈[0.05,0.7], %d sets/point — splitting vs the best strict partitioner", m, cfg.setsPerPoint()),
		points, algos, ratios,
		"expected: P-EDF ≥ P-RM everywhere; RM-TS ≥ P-EDF through ≈0.95; the EDF-based approaches win the extreme tail (exact 100% uniprocessor test), with EDF-TS (splitting) dominating strict P-EDF there",
	)}, nil
}

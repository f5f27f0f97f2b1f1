package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/task"
)

// SensitivityReport quantifies how much execution-time growth a schedulable
// configuration tolerates — the design-margin question that follows every
// successful schedulability analysis.
type SensitivityReport struct {
	// Global is the largest uniform scaling factor λ such that the set
	// with every C_i ← ⌊λ·C_i⌋ still partitions (the critical scaling
	// factor / breakdown factor of the configuration).
	Global float64
	// PerTask gives, for each task of the *DM-sorted* set, the largest
	// individual scaling factor when only that task grows. Values are
	// capped at the point where C would exceed the task's deadline.
	PerTask []float64
	// Set is the DM-sorted task set the indices refer to.
	Set task.Set
}

// String renders the report compactly.
func (s *SensitivityReport) String() string {
	out := fmt.Sprintf("global critical scaling: %.4f\n", s.Global)
	for i, f := range s.PerTask {
		out += fmt.Sprintf("  %-12s ×%.4f\n", s.Set[i].Name, f)
	}
	return out
}

// sensitivityIterations bounds the bisection; 2^-20 relative precision is
// far below the integer-time quantization anyway.
const sensitivityIterations = 20

// Sensitivity computes the scaling margins of ts on m processors under the
// given algorithm (nil lets the planner choose per attempt). It requires
// the unscaled set to be schedulable.
func Sensitivity(ts task.Set, m int, alg partition.Algorithm) (*SensitivityReport, error) {
	sorted := ts.Clone()
	sorted.SortDM()
	if err := sorted.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	feasible := func(scaled task.Set) bool {
		a := alg
		if a == nil {
			a = Choose(scaled, nil, nil)
		}
		return a.Partition(scaled, m).OK
	}
	if !feasible(sorted) {
		return nil, fmt.Errorf("core: the unscaled set is not schedulable on %d processors", m)
	}

	scaleOne := func(idx int, f float64) task.Set {
		scaled := sorted.Clone()
		for i := range scaled {
			if idx >= 0 && i != idx {
				continue
			}
			c := task.Time(float64(scaled[i].C) * f)
			if c < scaled[i].C {
				c = scaled[i].C // scaling factors ≥ 1 only
			}
			if d := scaled[i].Deadline(); c > d {
				c = d
			}
			scaled[i].C = c
		}
		return scaled
	}
	maxScale := func(idx int) float64 {
		// Expand to an infeasible upper bound, then bisect.
		lo, hi := 1.0, 2.0
		for hi < 1024 && feasible(scaleOne(idx, hi)) {
			lo, hi = hi, hi*2
		}
		if hi >= 1024 {
			return hi // effectively unbounded (deadline caps bite first)
		}
		for iter := 0; iter < sensitivityIterations; iter++ {
			mid := (lo + hi) / 2
			if feasible(scaleOne(idx, mid)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}

	rep := &SensitivityReport{Set: sorted, PerTask: make([]float64, len(sorted))}
	rep.Global = maxScale(-1)
	for i := range sorted {
		rep.PerTask[i] = maxScale(i)
	}
	return rep, nil
}

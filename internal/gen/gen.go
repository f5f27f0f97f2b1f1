// Package gen generates synthetic workloads for the evaluation experiments:
// random task sets with controlled total utilization, per-task utilization
// ranges, period distributions, harmonic structure (single chains or K
// chains) and heavy-task shares. Every generator is driven by an explicit
// *rand.Rand so experiments are seeded and reproducible.
//
// The methodology mirrors the evaluation style of the paper's research
// line: per-task utilizations drawn uniformly from a range, tasks added
// until the target normalized utilization M·U_M is reached (with the last
// task trimmed to land exactly on target), periods drawn log-uniformly from
// [Tmin, Tmax] (or from harmonic grids), and execution times rounded to the
// integer tick domain.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/task"
)

// PeriodGen draws task periods.
type PeriodGen interface {
	// Period draws one period.
	Period(r *rand.Rand) task.Time
}

// LogUniformPeriods draws periods log-uniformly from [Min, Max] — the
// standard choice that spreads periods evenly across orders of magnitude.
type LogUniformPeriods struct {
	Min, Max task.Time
}

// Period implements PeriodGen.
func (g LogUniformPeriods) Period(r *rand.Rand) task.Time {
	lo, hi := float64(g.Min), float64(g.Max)
	if lo <= 0 || hi < lo {
		panic(fmt.Sprintf("gen: invalid log-uniform period range [%d,%d]", g.Min, g.Max))
	}
	v := math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
	p := task.Time(math.Round(v))
	if p < g.Min {
		p = g.Min
	}
	if p > g.Max {
		p = g.Max
	}
	return p
}

// UniformPeriods draws periods uniformly from [Min, Max].
type UniformPeriods struct {
	Min, Max task.Time
}

// Period implements PeriodGen.
func (g UniformPeriods) Period(r *rand.Rand) task.Time {
	if g.Min <= 0 || g.Max < g.Min {
		panic(fmt.Sprintf("gen: invalid uniform period range [%d,%d]", g.Min, g.Max))
	}
	return g.Min + task.Time(r.Int63n(int64(g.Max-g.Min+1)))
}

// ChoicePeriods draws periods from a fixed menu — handy to keep
// hyperperiods small for simulation experiments.
type ChoicePeriods struct {
	Values []task.Time
}

// Period implements PeriodGen.
func (g ChoicePeriods) Period(r *rand.Rand) task.Time {
	if len(g.Values) == 0 {
		panic("gen: empty period menu")
	}
	return g.Values[r.Intn(len(g.Values))]
}

// Config describes a random task-set request.
type Config struct {
	// TargetU is the total utilization to hit (e.g. M·U_M). Must be > 0.
	TargetU float64
	// UMin and UMax bound each task's individual utilization. The final
	// task is trimmed to land on TargetU, but never below UMin.
	UMin, UMax float64
	// Periods draws the periods. Nil defaults to log-uniform [100, 10000].
	Periods PeriodGen
	// MaxTasks aborts generation if the target would need more tasks than
	// this (guards against UMin ≈ 0). Zero means 10000.
	MaxTasks int
}

// defaultPeriods is boxed once at init so the nil-Periods fast path does not
// allocate an interface value per generated set.
var defaultPeriods PeriodGen = LogUniformPeriods{Min: 100, Max: 10000}

func (c Config) periods() PeriodGen {
	if c.Periods == nil {
		return defaultPeriods
	}
	return c.Periods
}

// TaskSet draws utilizations uniformly from [UMin, UMax], adding tasks
// until the running total would pass TargetU; the final task is trimmed to
// land on the target (and redrawn while the trim would fall below UMin with
// remaining capacity — the "add and trim" variant of uniform-utilization
// generation). Execution times are C = max(1, round(U·T)); the realized
// total utilization therefore differs from TargetU only by integer
// rounding.
func TaskSet(r *rand.Rand, c Config) (task.Set, error) {
	return TaskSetInto(r, c, nil)
}

// TaskSetInto is TaskSet drawing into caller-owned scratch buffers: the
// utilization vector and the returned set reuse sc's capacity, so a warm
// steady state allocates nothing. The returned set aliases sc and is valid
// only until the next generate call on the same Scratch (see Scratch). A
// nil sc reproduces TaskSet exactly; the RNG draw sequence is identical in
// both modes.
func TaskSetInto(r *rand.Rand, c Config, sc *Scratch) (task.Set, error) {
	if c.TargetU <= 0 {
		return nil, fmt.Errorf("gen: non-positive target utilization %g", c.TargetU)
	}
	if c.UMin <= 0 || c.UMax < c.UMin || c.UMax > 1 {
		return nil, fmt.Errorf("gen: invalid per-task utilization range [%g,%g]", c.UMin, c.UMax)
	}
	maxTasks := c.MaxTasks
	if maxTasks == 0 {
		maxTasks = 10000
	}
	pg := c.periods()
	us := sc.usBuf()
	total := 0.0
	for total < c.TargetU {
		if len(us) >= maxTasks {
			return nil, fmt.Errorf("gen: target %g needs more than %d tasks", c.TargetU, maxTasks)
		}
		u := c.UMin + r.Float64()*(c.UMax-c.UMin)
		if total+u >= c.TargetU {
			u = c.TargetU - total
			if u < c.UMin {
				// The remainder is too small for a valid task: fold it into
				// the previous task if that stays within UMax, else retry.
				if len(us) > 0 && us[len(us)-1]+u <= c.UMax {
					us[len(us)-1] += u
					total += u
					continue
				}
				// Shrink the previous task to make room for a UMin-sized one.
				if len(us) > 0 && us[len(us)-1]-(c.UMin-u) >= c.UMin {
					us[len(us)-1] -= c.UMin - u
					u = c.UMin
				} else {
					u = c.UMin // slight overshoot; trimmed by rounding below
				}
			}
		}
		us = append(us, u)
		total += u
	}
	sc.saveUs(us)
	return MaterializeInto(r, us, pg, sc)
}

// MaterializeInto converts a utilization vector into an integer task set
// using the period generator: T drawn per task, C = clamp(round(U·T), 1, T).
// The set is drawn into sc's set buffer (see TaskSetInto for the aliasing
// contract; nil sc allocates fresh).
func MaterializeInto(r *rand.Rand, us []float64, pg PeriodGen, sc *Scratch) (task.Set, error) {
	ts := sc.setBuf(len(us))
	for i, u := range us {
		if u <= 0 || u > 1 {
			return nil, fmt.Errorf("gen: utilization %g out of (0,1] at index %d", u, i)
		}
		t := pg.Period(r)
		c := task.Time(math.Round(u * float64(t)))
		if c < 1 {
			c = 1
		}
		if c > t {
			c = t
		}
		ts = append(ts, task.Task{Name: uniformName(i), C: c, T: t})
	}
	sc.saveSet(ts)
	ts.SortRM()
	return ts, nil
}

// Constrain tightens each task's deadline to a uniformly drawn fraction of
// its period, D = max(C, round(T·f)) with f ∈ [fMin, fMax] ⊆ (0, 1] — the
// standard way to derive constrained-deadline workloads from implicit ones.
// fMax = 1 may still leave some tasks implicit. The input is not modified.
func Constrain(r *rand.Rand, ts task.Set, fMin, fMax float64) (task.Set, error) {
	return ConstrainInto(r, ts, fMin, fMax, nil)
}

// ConstrainInto is Constrain copying into a scratch-owned output buffer
// (distinct from the set buffer, so ts may itself be a scratch-generated
// set). Nil sc allocates fresh; the input is never modified either way.
func ConstrainInto(r *rand.Rand, ts task.Set, fMin, fMax float64, sc *Scratch) (task.Set, error) {
	if fMin <= 0 || fMax < fMin || fMax > 1 {
		return nil, fmt.Errorf("gen: invalid deadline fraction range [%g,%g]", fMin, fMax)
	}
	var out task.Set
	if sc == nil {
		out = ts.Clone()
	} else {
		out = append(sc.out[:0], ts...)
		sc.out = out
	}
	for i := range out {
		f := fMin + r.Float64()*(fMax-fMin)
		d := task.Time(math.Round(f * float64(out[i].T)))
		if d < out[i].C {
			d = out[i].C
		}
		if d > out[i].T {
			d = out[i].T
		}
		out[i].D = d
	}
	return out, nil
}

// UUniFast generates n utilizations summing to targetU using the UUniFast
// algorithm of Bini & Buttazzo — uniform over the simplex. targetU must be
// at most n (individual utilizations can exceed 1 otherwise).
func UUniFast(r *rand.Rand, n int, targetU float64) []float64 {
	us := make([]float64, n)
	sum := targetU
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(r.Float64(), 1/float64(n-1-i))
		us[i] = sum - next
		sum = next
	}
	us[n-1] = sum
	return us
}

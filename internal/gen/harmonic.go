package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/task"
)

// HarmonicConfig describes a harmonic (single-chain) or K-chain task set
// request.
type HarmonicConfig struct {
	// TargetU is the total utilization to hit.
	TargetU float64
	// UMin and UMax bound each task's individual utilization.
	UMin, UMax float64
	// Chains is the number of harmonic chains (1 = fully harmonic set).
	Chains int
	// BasePeriods optionally fixes the base period of each chain; when nil,
	// pairwise-coprime defaults are used so the chain count is exact.
	BasePeriods []task.Time
	// Factors is the menu of multipliers used to extend a chain; defaults
	// to {2, 3, 4} (each period divides every larger one in its chain).
	Factors []int
	// MaxLevels bounds how many times a chain's period is multiplied
	// (keeps hyperperiods simulable); defaults to 4.
	MaxLevels int
	// MaxTasks guards runaway generation; defaults to 10000.
	MaxTasks int
}

// defaultChainBases are pairwise coprime so that periods from different
// chains never divide each other, making the generated chain count exact
// (bounds.HarmonicChainsMin finds exactly Chains chains).
var defaultChainBases = []task.Time{64, 81, 125, 49, 121, 169, 289, 361}

// HarmonicSet generates a task set whose periods form exactly cfg.Chains
// harmonic chains: chain k uses periods base_k · Π factors. Utilizations
// are drawn as in TaskSet and tasks are dealt to chains round-robin.
func HarmonicSet(r *rand.Rand, cfg HarmonicConfig) (task.Set, error) {
	return HarmonicSetInto(r, cfg, nil)
}

// HarmonicSetInto is HarmonicSet drawing into caller-owned scratch (chain
// ladders and the returned set reuse sc's capacity; see TaskSetInto for
// the aliasing contract). Nil sc reproduces HarmonicSet exactly.
func HarmonicSetInto(r *rand.Rand, cfg HarmonicConfig, sc *Scratch) (task.Set, error) {
	if cfg.Chains < 1 {
		return nil, fmt.Errorf("gen: chain count %d < 1", cfg.Chains)
	}
	if cfg.TargetU <= 0 {
		return nil, fmt.Errorf("gen: non-positive target utilization %g", cfg.TargetU)
	}
	if cfg.UMin <= 0 || cfg.UMax < cfg.UMin || cfg.UMax > 1 {
		return nil, fmt.Errorf("gen: invalid per-task utilization range [%g,%g]", cfg.UMin, cfg.UMax)
	}
	bases := cfg.BasePeriods
	if bases == nil {
		if cfg.Chains > len(defaultChainBases) {
			return nil, fmt.Errorf("gen: at most %d default chain bases; supply BasePeriods for %d chains", len(defaultChainBases), cfg.Chains)
		}
		bases = defaultChainBases[:cfg.Chains]
	}
	if len(bases) != cfg.Chains {
		return nil, fmt.Errorf("gen: %d base periods for %d chains", len(bases), cfg.Chains)
	}
	factors := cfg.Factors
	if len(factors) == 0 {
		factors = []int{2, 3, 4}
	}
	maxLevels := cfg.MaxLevels
	if maxLevels == 0 {
		maxLevels = 4
	}
	maxTasks := cfg.MaxTasks
	if maxTasks == 0 {
		maxTasks = 10000
	}

	// Pre-build each chain's period ladder: base, base·f1, base·f1·f2, ...
	ladders := sc.laddersBuf(cfg.Chains)
	for k, b := range bases {
		ladder := append(ladders[k], b)
		p := b
		for l := 0; l < maxLevels; l++ {
			p *= task.Time(factors[r.Intn(len(factors))])
			ladder = append(ladder, p)
		}
		ladders[k] = ladder
	}

	ts := sc.setBuf(0)
	total := 0.0
	i := 0
	for total < cfg.TargetU {
		if len(ts) >= maxTasks {
			return nil, fmt.Errorf("gen: target %g needs more than %d tasks", cfg.TargetU, maxTasks)
		}
		u := cfg.UMin + r.Float64()*(cfg.UMax-cfg.UMin)
		if total+u >= cfg.TargetU {
			u = cfg.TargetU - total
			if u < cfg.UMin {
				u = cfg.UMin
			}
		}
		ladder := ladders[i%cfg.Chains]
		t := ladder[r.Intn(len(ladder))]
		c := task.Time(float64(t)*u + 0.5)
		if c < 1 {
			c = 1
		}
		if c > t {
			c = t
		}
		ts = append(ts, task.Task{Name: harmonicName(i), C: c, T: t})
		total += float64(c) / float64(t)
		i++
	}
	sc.saveSet(ts)
	ts.SortRM()
	return ts, nil
}

// MixedConfig generates task sets with a controlled share of heavy tasks
// (utilization above the heavy threshold) — the knob RM-TS's
// pre-assignment phase exists for.
type MixedConfig struct {
	// TargetU is the total utilization to hit.
	TargetU float64
	// HeavyShare is the fraction of the total utilization carried by heavy
	// tasks, in [0, 1].
	HeavyShare float64
	// HeavyMin and HeavyMax bound heavy-task utilizations (e.g. 0.5–0.9).
	HeavyMin, HeavyMax float64
	// LightMin and LightMax bound light-task utilizations (e.g. 0.05–0.35).
	LightMin, LightMax float64
	// Periods draws the periods; nil defaults to log-uniform [100, 10000].
	Periods PeriodGen
}

// MixedSet generates a heavy/light mix: heavy tasks are added until they
// carry HeavyShare·TargetU, light tasks fill the rest.
func MixedSet(r *rand.Rand, cfg MixedConfig) (task.Set, error) {
	return MixedSetInto(r, cfg, nil)
}

// MixedSetInto is MixedSet drawing into caller-owned scratch (see
// TaskSetInto for the aliasing contract). Nil sc reproduces MixedSet
// exactly.
func MixedSetInto(r *rand.Rand, cfg MixedConfig, sc *Scratch) (task.Set, error) {
	if cfg.HeavyShare < 0 || cfg.HeavyShare > 1 {
		return nil, fmt.Errorf("gen: heavy share %g out of [0,1]", cfg.HeavyShare)
	}
	pg := cfg.Periods
	if pg == nil {
		pg = defaultPeriods
	}
	us := sc.usBuf()
	heavyTarget := cfg.TargetU * cfg.HeavyShare
	heavy := 0.0
	for heavy < heavyTarget && cfg.HeavyShare > 0 {
		u := cfg.HeavyMin + r.Float64()*(cfg.HeavyMax-cfg.HeavyMin)
		if heavy+u > heavyTarget && heavy > 0 {
			break
		}
		us = append(us, u)
		heavy += u
	}
	light := cfg.TargetU - heavy
	sum := 0.0
	for sum < light {
		u := cfg.LightMin + r.Float64()*(cfg.LightMax-cfg.LightMin)
		if sum+u >= light {
			u = light - sum
			if u < cfg.LightMin {
				u = cfg.LightMin
			}
		}
		us = append(us, u)
		sum += u
	}
	sc.saveUs(us)
	return MaterializeInto(r, us, pg, sc)
}

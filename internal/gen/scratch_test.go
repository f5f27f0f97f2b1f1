package gen

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/task"
)

// TestScratchMatchesNil pins the contract ReplaySample and cmd/explain rely
// on: every *Into generator draws the same set through a reused, dirty
// Scratch as through a nil one from the same seed, and leaves the RNG in the
// same state. One scratch serves every case and seed in turn, after its
// buffers have been filled with garbage.
func TestScratchMatchesNil(t *testing.T) {
	uniform := UniformPeriods{Min: 10, Max: 5000}
	cases := []struct {
		name string
		gen  func(r *rand.Rand, sc *Scratch) (task.Set, error)
	}{
		{"TaskSetInto", func(r *rand.Rand, sc *Scratch) (task.Set, error) {
			return TaskSetInto(r, Config{TargetU: 3.2, UMin: 0.05, UMax: 0.5}, sc)
		}},
		{"TaskSetInto/uniform", func(r *rand.Rand, sc *Scratch) (task.Set, error) {
			return TaskSetInto(r, Config{TargetU: 1.7, UMin: 0.1, UMax: 0.9, Periods: uniform}, sc)
		}},
		{"MaterializeInto", func(r *rand.Rand, sc *Scratch) (task.Set, error) {
			return MaterializeInto(r, []float64{0.3, 0.05, 0.9, 0.41, 0.2}, uniform, sc)
		}},
		{"ConstrainInto", func(r *rand.Rand, sc *Scratch) (task.Set, error) {
			// The input aliases the scratch's set buffer, as in the
			// constrained-deadline sweep.
			base, err := TaskSetInto(r, Config{TargetU: 2.4, UMin: 0.05, UMax: 0.4}, sc)
			if err != nil {
				return nil, err
			}
			return ConstrainInto(r, base, 0.5, 1, sc)
		}},
		{"HarmonicSetInto", func(r *rand.Rand, sc *Scratch) (task.Set, error) {
			return HarmonicSetInto(r, HarmonicConfig{TargetU: 2.5, UMin: 0.05, UMax: 0.5, Chains: 3}, sc)
		}},
		{"MixedSetInto", func(r *rand.Rand, sc *Scratch) (task.Set, error) {
			return MixedSetInto(r, MixedConfig{TargetU: 3, HeavyShare: 0.4, HeavyMin: 0.5, HeavyMax: 0.9,
				LightMin: 0.05, LightMax: 0.35}, sc)
		}},
	}

	sc := &Scratch{
		us:      []float64{7, -1, 0.5, 3, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9},
		set:     task.Set{{Name: "junk", C: 5, T: 3, D: 1}, {Name: "junk", C: -1, T: 0}},
		out:     task.Set{{Name: "junk", C: 99, T: 1, D: 99}},
		ladders: [][]task.Time{{1, 2, 3}, {7}, nil, {0, 0, 0, 0, 0, 0}},
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, tc := range cases {
			ctx := fmt.Sprintf("%s seed %d", tc.name, seed)
			rs, rn := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, errS := tc.gen(rs, sc)
			want, errN := tc.gen(rn, nil)
			if fmt.Sprint(errS) != fmt.Sprint(errN) {
				t.Fatalf("%s: error with scratch %v, with nil %v", ctx, errS, errN)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: scratch drew\n%v\nnil drew\n%v", ctx, got, want)
			}
			for k := 0; k < 3; k++ {
				if a, b := rs.Int63(), rn.Int63(); a != b {
					t.Fatalf("%s: RNG draw %d after generation differs (%d vs %d)", ctx, k, a, b)
				}
			}
		}
	}
}

package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/rta"
	"repro/internal/split"
	"repro/internal/task"
	"repro/internal/xrand"
)

// SplitAblation (E9) compares the two MaxSplit implementations (§IV-A):
// the binary-search reference the paper sketches and the efficient
// testing-point method it cites from [22]. Both must agree exactly on
// every instance; the table reports agreement and the speedup.
func SplitAblation(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE9))
	instances := cfg.setsPerPoint() * 5
	if cfg.Quick && instances > 200 {
		instances = 200
	}

	type inst struct {
		list   []task.Subtask
		t, d   task.Time
		budget task.Time
	}
	cases := make([]inst, 0, instances)
	for len(cases) < instances {
		n := 2 + r.Intn(6)
		list := make([]task.Subtask, 0, n)
		for i := 0; i < n; i++ {
			T := task.Time(50 + r.Intn(5000))
			C := task.Time(1 + r.Intn(int(T)/3))
			d := T - task.Time(r.Intn(int(T)/4+1))
			if d < C {
				d = C
			}
			list = append(list, task.Subtask{TaskIndex: i + 1, Part: 1, C: C, T: T, Deadline: d, Offset: T - d, Tail: true})
		}
		if !rta.ProcessorSchedulable(list) {
			continue
		}
		T := task.Time(30 + r.Intn(3000))
		cases = append(cases, inst{list: list, t: T, budget: T, d: T})
	}

	// Each call loads its instance into one reused analysis state, and
	// priority index 0 puts the new load above every resident (their
	// indices start at 1), the paper's top insertion.
	var ps rta.ProcState
	maxSplit := func(c inst, method func(*rta.ProcState, int, task.Time, task.Time, task.Time) task.Time) task.Time {
		ps.Load(c.list)
		return method(&ps, 0, c.t, c.budget, c.d)
	}

	// Agreement pass (also warms both paths).
	agree := 0
	for _, c := range cases {
		if maxSplit(c, split.MaxPortionState) == maxSplit(c, split.MaxPortionBinary) {
			agree++
		}
	}

	start := time.Now()
	var sinkA task.Time
	for _, c := range cases {
		sinkA += maxSplit(c, split.MaxPortionState)
	}
	effTime := time.Since(start)

	start = time.Now()
	var sinkB task.Time
	for _, c := range cases {
		sinkB += maxSplit(c, split.MaxPortionBinary)
	}
	binTime := time.Since(start)

	speedup := float64(binTime) / float64(effTime)
	t := Table{
		ID:     "split-ablation",
		Title:  fmt.Sprintf("MaxSplit implementations over %d random near-capacity instances", instances),
		Header: []string{"implementation", "total time", "ns/op", "agreement"},
		Notes: []string{
			fmt.Sprintf("speedup of testing-point over binary search: %.2f×", speedup),
			"both are exact on the integer domain; agreement must be 100%",
		},
	}
	t.Rows = append(t.Rows,
		[]string{"testing-point ([22])", effTime.String(), fmt.Sprintf("%d", effTime.Nanoseconds()/int64(instances)), fmt.Sprintf("%d/%d", agree, instances)},
		[]string{"binary search (reference)", binTime.String(), fmt.Sprintf("%d", binTime.Nanoseconds()/int64(instances)), "-"},
	)
	if sinkA != sinkB {
		t.Notes = append(t.Notes, "WARNING: implementations disagree — investigate")
	}
	cfg.progressf("split-ablation: %d instances, speedup %.2fx", instances, speedup)
	return []Table{t}, nil
}

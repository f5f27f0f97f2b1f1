package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/xrand"
)

// Workspace is one worker's persistent scratch state for the per-sample
// pipeline (generate → partition → analyze): a generator scratch, a
// partitioning arena and a reusable RNG. parEach hands each worker one
// workspace and reuses it across every index the worker steals, so the
// steady-state sweep loop allocates nothing per task set.
//
// Ownership follows the arena contract (partition.Arena): anything returned
// by Gen-backed generators or Partition borrows the workspace and is valid
// only until the next generate/Partition call on the same workspace. A
// Workspace is not safe for concurrent use; workspaces are pooled and
// recycled across parEach calls.
type Workspace struct {
	gen      gen.Scratch
	arena    partition.Arena
	rng      *rand.Rand
	paranoid bool

	// carry is the breakdown bisections' cross-scale warm-start state: the
	// converged responses of the last accepted scale of the CURRENT sample
	// (see rta.BatchState.EvaluateList). Reset at the start of each sample.
	carry rta.BatchState
	// uniTS/uniList are uniBreakdown's per-probe build buffers, hoisted so a
	// 14-probe bisection reuses one pair instead of allocating per probe.
	uniTS   task.Set
	uniList []task.Subtask
	// memoC/memoOK memoize breakdownOf acceptance verdicts on the exact
	// scaled C-vector (memoC holds the keys flattened n-at-a-time).
	memoC  []task.Time
	memoOK []bool
	// frags indexes a partitioning's fragments by task for E13's
	// deflation and E17's per-task bounds; deflOrig, deflSet and deflated
	// are E13's deflation buffers (deflateAssignment).
	frags    task.FragmentIndex
	deflOrig task.Set
	deflSet  task.Set
	deflated task.Assignment
}

// Gen returns the workspace's generator scratch. Every generator draws
// identically through it and through a nil scratch (the gen scratch
// equivalence test pins this), which is what lets ReplaySample regenerate
// a sweep sample without a workspace.
func (ws *Workspace) Gen() *gen.Scratch { return &ws.gen }

// Partition runs alg on (ts, m) drawing all working storage from the
// workspace arena. The result borrows the workspace. An algorithm without
// arena support gets a plain Partition call; the verdict and every Result
// field are identical either way (the arena equivalence tests pin this).
func (ws *Workspace) Partition(alg partition.Algorithm, ts task.Set, m int) *partition.Result {
	var res *partition.Result
	if ap, ok := alg.(partition.ArenaPartitioner); ok {
		res = ap.PartitionArena(ts, m, &ws.arena)
	} else {
		res = alg.Partition(ts, m)
	}
	// Paranoid mode: re-prove every successful result from scratch. The
	// panic is deliberate — parEach's isolation converts it into a
	// seed-reproducible SampleError naming this exact sample.
	if ws.paranoid && res != nil && res.OK {
		if err := partition.ValidateFor(alg, res); err != nil {
			panic(fmt.Sprintf("paranoid: invariant violation in %s on m=%d: %v", alg.Name(), m, err))
		}
	}
	return res
}

// wsPool recycles workspaces across parEach calls (and across benchmark
// iterations), so buffer capacities survive the whole process lifetime.
// The pooled RNG rides xrand.Source — bit-identical to rand.NewSource (the
// xrand tests pin this) but with the ~3× cheaper reseed the per-sample loop
// actually pays for.
var wsPool = sync.Pool{New: func() interface{} {
	return &Workspace{rng: rand.New(xrand.New(0))}
}}

func getWorkspace(c Config) *Workspace {
	ws := wsPool.Get().(*Workspace)
	ws.paranoid = c.Paranoid
	return ws
}

func putWorkspace(ws *Workspace) { wsPool.Put(ws) }

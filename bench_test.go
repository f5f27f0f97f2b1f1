package repro

// One benchmark per experiment key (DESIGN.md §4) — running
// `go test -bench=. -benchmem` regenerates every table/figure of the
// evaluation at benchmark scale (Quick config, reduced set counts), and a
// set of micro-benchmarks for the analysis primitives. For
// publication-scale tables use cmd/experiments, which runs the full
// sweeps.

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"repro/internal/admit"
	"repro/internal/bounds"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/split"
	"repro/internal/task"
)

func benchExperiment(b *testing.B, key string) {
	e, ok := experiments.Find(key)
	if !ok {
		b.Fatalf("experiment %s not registered", key)
	}
	// Collect domain metrics alongside ns/op: the obs counters cost one
	// atomic add each and do not perturb the measured algorithms.
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(experiments.Config{Seed: int64(i) + 1, SetsPerPoint: 10, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
	perOp := func(name string) float64 { return float64(obs.Value(name)) / float64(b.N) }
	b.ReportMetric(perOp("rta.iterations"), "rta-iters/op")
	b.ReportMetric(perOp("rta.cache.warm_starts"), "warm-starts/op")
	b.ReportMetric(perOp("partition.splits"), "splits/op")
	b.ReportMetric(perOp("partition.prefilter.hits"), "prefilter-hits/op")
}

func BenchmarkE1BoundsTable(b *testing.B)        { benchExperiment(b, "bounds-table") }
func BenchmarkE2AcceptanceGeneral(b *testing.B)  { benchExperiment(b, "acceptance-general") }
func BenchmarkE3AcceptanceLight(b *testing.B)    { benchExperiment(b, "acceptance-light") }
func BenchmarkE4AcceptanceHarmonic(b *testing.B) { benchExperiment(b, "acceptance-harmonic") }
func BenchmarkE5AcceptanceKChains(b *testing.B)  { benchExperiment(b, "acceptance-kchains") }
func BenchmarkE6Breakdown(b *testing.B)          { benchExperiment(b, "breakdown") }
func BenchmarkE7ProcsSweep(b *testing.B)         { benchExperiment(b, "procs-sweep") }
func BenchmarkE8HeavySweep(b *testing.B)         { benchExperiment(b, "heavy-sweep") }
func BenchmarkE9MaxSplitAblation(b *testing.B)   { benchExperiment(b, "split-ablation") }
func BenchmarkE10SimulateVerify(b *testing.B)    { benchExperiment(b, "simulate-verify") }
func BenchmarkE11UtilizationTail(b *testing.B)   { benchExperiment(b, "utilization-tail") }
func BenchmarkE12GlobalCompare(b *testing.B)     { benchExperiment(b, "global-compare") }
func BenchmarkE13OverheadSensitivity(b *testing.B) {
	benchExperiment(b, "overhead-sensitivity")
}
func BenchmarkE14AdmissionAblation(b *testing.B) { benchExperiment(b, "admission-ablation") }
func BenchmarkE15FPvsEDF(b *testing.B)           { benchExperiment(b, "fp-vs-edf") }
func BenchmarkE16ConstrainedDeadlines(b *testing.B) {
	benchExperiment(b, "constrained-deadlines")
}
func BenchmarkE17AnalysisPessimism(b *testing.B) { benchExperiment(b, "analysis-pessimism") }
func BenchmarkE18UniBreakdown(b *testing.B)      { benchExperiment(b, "uni-breakdown") }

// --- micro-benchmarks for the analysis primitives ---

func benchSets(n int, m int, umax float64) []task.Set {
	r := rand.New(rand.NewSource(1234))
	sets := make([]task.Set, n)
	for i := range sets {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 0.8 * float64(m), UMin: 0.05, UMax: umax})
		if err != nil {
			panic(err)
		}
		sets[i] = ts
	}
	return sets
}

func BenchmarkRTAProcessor(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	var lists [][]task.Subtask
	for len(lists) < 64 {
		n := 5 + r.Intn(10)
		list := make([]task.Subtask, 0, n)
		for i := 0; i < n; i++ {
			T := task.Time(100 + r.Intn(9900))
			C := task.Time(1 + r.Intn(int(T)/12))
			list = append(list, task.Subtask{TaskIndex: i, Part: 1, C: C, T: T, Deadline: T, Tail: true})
		}
		lists = append(lists, list)
	}
	// rta.ProcessorSchedulable's work on one reused state: load the list,
	// then each position's cold fixed point up to the first miss.
	var ps rta.ProcState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list := lists[i%len(lists)]
		ps.Load(list)
		for pos := range list {
			if _, ok := ps.ResponseAt(pos, list[pos].Deadline); !ok {
				break
			}
		}
	}
}

// BenchmarkBatchRTAKernel exercises the struct-of-arrays ProcState hot loop
// in isolation: a pool of prefilled processors, each op probing one whole
// admission (AdmitAt), the capped slack scan a split would run, and an
// insert/remove churn cycle against warm caches. The batch path must stay
// allocation-free — the 0 allocs/op here is pinned by the perfdiff gate.
func BenchmarkBatchRTAKernel(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	var states []rta.ProcState
	states = rta.ResetProcStates(states, 16, 0)
	var cands []task.Subtask
	for q := range states {
		ps := &states[q]
		next := 0
		for ps.Len() < 8 {
			T := task.Time(100 + r.Intn(9900))
			C := task.Time(1 + r.Intn(int(T)/10))
			if ps.AdmitAt(next, C, T, T) {
				ps.Insert(task.Subtask{TaskIndex: next, Part: 1, C: C, T: T, Deadline: T, Tail: true})
			}
			next += 2
		}
		T := task.Time(100 + r.Intn(9900))
		cands = append(cands, task.Subtask{TaskIndex: next, Part: 1,
			C: 1 + task.Time(r.Intn(int(T)/10)), T: T, Deadline: T, Tail: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(states)
		ps := &states[q]
		c := cands[q]
		if ps.AdmitAt(c.TaskIndex, c.C, c.T, c.Deadline) {
			ps.Remove(ps.Insert(c))
		}
		for pos := 0; pos < ps.Len(); pos++ {
			_ = ps.SlackAtMost(pos, c.T, c.C)
		}
	}
}

func BenchmarkMaxSplitTestingPoint(b *testing.B) {
	benchMaxSplit(b, split.MaxPortionState)
}

func BenchmarkMaxSplitBinarySearch(b *testing.B) {
	benchMaxSplit(b, split.MaxPortionBinary)
}

// benchMaxSplit runs one MaxSplit method per op on a reused state loaded
// with the op's resident list; priority index 0 inserts the new load above
// every resident (their indices start at 1).
func benchMaxSplit(b *testing.B, f func(*rta.ProcState, int, task.Time, task.Time, task.Time) task.Time) {
	r := rand.New(rand.NewSource(3))
	type inst struct {
		list []task.Subtask
		t    task.Time
	}
	var cases []inst
	for len(cases) < 64 {
		n := 3 + r.Intn(6)
		list := make([]task.Subtask, 0, n)
		for i := 0; i < n; i++ {
			T := task.Time(100 + r.Intn(5000))
			C := task.Time(1 + r.Intn(int(T)/6))
			list = append(list, task.Subtask{TaskIndex: i + 1, Part: 1, C: C, T: T, Deadline: T, Tail: true})
		}
		if !rta.ProcessorSchedulable(list) {
			continue
		}
		cases = append(cases, inst{list, task.Time(100 + r.Intn(3000))})
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Reset()
	var ps rta.ProcState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		ps.Load(c.list)
		f(&ps, 0, c.t, c.t, c.t)
	}
	b.ReportMetric(float64(obs.Value("split.bin.probes"))/float64(b.N), "bin-probes/op")
	b.ReportMetric(float64(obs.Value("rta.slack.points"))/float64(b.N), "slack-points/op")
}

func BenchmarkPartitionRMTS(b *testing.B) {
	sets := benchSets(32, 8, 0.6)
	alg := partition.NewRMTS(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Partition(sets[i%len(sets)], 8)
	}
}

// BenchmarkPartitionRMTSArena is BenchmarkPartitionRMTS on the arena entry
// point with one persistent Arena — the steady state the experiment workers
// run in. The allocs/op delta against BenchmarkPartitionRMTS is the direct
// measure of what scratch reuse buys per partitioning call.
func BenchmarkPartitionRMTSArena(b *testing.B) {
	sets := benchSets(32, 8, 0.6)
	alg := partition.NewRMTS(nil)
	var ar partition.Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.PartitionArena(sets[i%len(sets)], 8, &ar)
	}
}

// BenchmarkE2SetVerdict is the unit an acceptance-ratio curve is made of:
// name one E2 sample (RecipeFor), regenerate it (ReplaySample) and judge it
// by the three E2 algorithms — RM-TS under bounds.Best (the max of LL,
// HC-min, T and R), SPA2 and P-RM-FF — through one persistent Arena, as
// perfbench's p50_us and a sweep's Workspace do. Each op is one sample of
// a fixed cycle over every point of the publication-scale sweep.
func BenchmarkE2SetVerdict(b *testing.B) {
	const key, seed, samples = "acceptance-general", 1, 8
	points := 0
	for ; ; points++ {
		if _, err := experiments.RecipeFor(key, seed, false, points, 0); err != nil {
			break
		}
	}
	algos := []partition.ArenaPartitioner{
		partition.NewRMTS(bounds.Best()), partition.SPA2{}, partition.FirstFitRTA{},
	}
	var ar partition.Arena
	accepted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (points * samples)
		rc, err := experiments.RecipeFor(key, seed, false, k/samples, k%samples)
		if err != nil {
			b.Fatal(err)
		}
		ts, m, err := experiments.ReplaySample(key, false, rc.Point, rc.SampleSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range algos {
			if res := alg.PartitionArena(ts, m, &ar); res.OK && res.Guaranteed {
				accepted++
			}
		}
	}
	b.ReportMetric(float64(accepted)/float64(b.N), "accepted/op")
}

func BenchmarkPartitionRMTSLight(b *testing.B) {
	sets := benchSets(32, 8, 0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.RMTSLight{}.Partition(sets[i%len(sets)], 8)
	}
}

func BenchmarkPartitionSPA2(b *testing.B) {
	sets := benchSets(32, 8, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.SPA2{}.Partition(sets[i%len(sets)], 8)
	}
}

func BenchmarkSimulateHyperperiod(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	ts, err := gen.TaskSet(r, gen.Config{
		TargetU: 3.0, UMin: 0.05, UMax: 0.4,
		Periods: gen.ChoicePeriods{Values: []task.Time{20, 40, 50, 80, 100, 200, 400}},
	})
	if err != nil {
		b.Fatal(err)
	}
	res := partition.NewRMTS(nil).Partition(ts, 4)
	if !res.OK {
		b.Fatal(res.Reason)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.Simulate(res.Assignment, sim.Options{StopOnMiss: true, HorizonCap: 100_000})
		if err != nil || !rep.Ok() {
			b.Fatalf("err=%v ok=%v", err, rep.Ok())
		}
	}
}

// BenchmarkAdmitService measures the admission service's sustained hot
// path: one in-process admit per op against a prefilled steady-state
// cluster, with removal churn keeping the resident population bounded, so
// every op exercises the warm-start probe and the removal invalidation.
// 1e9/ns_per_op is the sustained admissions/sec on one box — the ci.sh
// gate requires ≈ 143k (ns/op ≤ 7,000).
func BenchmarkAdmitService(b *testing.B) {
	svc := admit.NewService(0)
	c, err := svc.Create(context.Background(), "bench", 8, partition.OnlineRTAFirstFit, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchAdmitService(b, c)
}

// BenchmarkAdmitServiceJournaled is the same workload with the write-ahead
// journal attached (fsync off, periodic snapshots disabled), so the delta
// against BenchmarkAdmitService is the pure journaling CPU cost per
// admission — record encoding plus buffered file append, no fsync syscalls
// and no background snapshot noise in the alloc counts. The ci.sh
// admissions/sec floor applies to the unjournaled variant only; this one
// is recorded in BENCH_hotpath.json so perfdiff flags drift in the
// durable path too.
func BenchmarkAdmitServiceJournaled(b *testing.B) {
	svc := admit.NewService(0)
	if _, err := svc.AttachJournal(admit.JournalConfig{
		Dir: b.TempDir(), Fsync: admit.FsyncOff, SnapshotEvery: -1,
	}); err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	c, err := svc.Create(context.Background(), "bench", 8, partition.OnlineRTAFirstFit, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchAdmitService(b, c)
}

func benchAdmitService(b *testing.B, c *admit.Cluster) {
	// Metrics stay ON for the measured loop: the acceptance bar for the
	// admission hot path is the instrumented number, not a telemetry-off
	// best case (EXPERIMENTS.md records the on/off delta separately).
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	ctx := context.Background()
	// A fixed cyclic task stream (period 35 in i) with occasional constrained
	// deadlines; deterministic, so baseline and current captures see the same
	// offered load.
	stream := func(i int) task.Task {
		T := task.Time(10 * (1 + i%7))
		tk := task.Task{C: 1 + task.Time(i%5), T: T}
		if i%5 == 4 {
			tk.D = tk.C + (T-tk.C)/2
		}
		return tk
	}
	// Ring of live handles: each op removes the oldest resident and admits
	// the next task of the stream, so the population stays at the steady
	// state and every op pays one Remove invalidation plus one warm admit.
	const residents = 64
	var ring [residents + 1]uint64
	head, tail := 0, 0
	live := func() int { return (tail - head + len(ring)) % len(ring) }
	for i := 0; live() < residents && i < 10_000; i++ {
		if res, err := c.Admit(ctx, stream(i)); err != nil {
			b.Fatal(err)
		} else if res.Accepted {
			ring[tail] = res.Handle
			tail = (tail + 1) % len(ring)
		}
	}
	if live() < residents {
		b.Fatalf("prefill stalled at %d residents", live())
	}
	accepted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if live() >= residents {
			if _, err := c.Remove(context.Background(), ring[head]); err != nil {
				b.Fatal(err)
			}
			head = (head + 1) % len(ring)
		}
		res, err := c.Admit(ctx, stream(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Accepted {
			accepted++
			ring[tail] = res.Handle
			tail = (tail + 1) % len(ring)
		}
	}
	b.ReportMetric(float64(accepted)/float64(b.N), "accepted/op")
}

// BenchmarkAdmitServiceReject measures an analyzed rejection in process:
// an M=32 cluster prefilled to its capacity edge, offered a cycle of 4,096
// distinct heavy candidates that every processor refuses. Every op pays the
// engine's pass over all 32 processors and the per-processor evidence — the
// in-process cost behind admitd's rejection responses.
// Most processors are over-full for a heavy candidate: those are refused
// by utilization alone and report the utilization room as evidence, so
// only the processors with room left run exact RTA, once in the engine
// and once for the evidence probe.
func BenchmarkAdmitServiceReject(b *testing.B) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	ctx := context.Background()
	svc := admit.NewService(0)
	c, err := svc.Create(ctx, "bench", 32, partition.OnlineRTAFirstFit, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Fill with a fixed light-task stream until 64 admissions in a row are
	// refused: every processor then sits near its capacity edge.
	for i, refused := 0, 0; refused < 64 && i < 100_000; i++ {
		T := task.Time(20 * (1 + i%9))
		res, err := c.Admit(ctx, task.Task{C: 1 + task.Time(i%7)*T/40, T: T})
		if err != nil {
			b.Fatal(err)
		}
		if res.Accepted {
			refused = 0
		} else {
			refused++
		}
	}
	stream := func(i int) task.Task {
		T := task.Time(100 + i%64)
		return task.Task{C: T - 5 - task.Time(i/64%64), T: T}
	}
	rejected := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Admit(ctx, stream(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted && len(res.Evidence) == 32 {
			rejected++
		}
	}
	b.StopTimer()
	if rejected != b.N {
		b.Fatalf("%d of %d ops were analyzed rejections; the benchmark needs every op to be one", rejected, b.N)
	}
}

func BenchmarkBoundTest(b *testing.B) {
	sets := benchSets(32, 8, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BoundTest(sets[i%len(sets)], 8)
	}
}

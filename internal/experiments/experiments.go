// Package experiments regenerates the paper's evaluation artifacts. Each
// experiment is a named, seeded, deterministic procedure producing one or
// more Tables; the registry maps experiment keys (see DESIGN.md §4) to
// implementations. cmd/experiments renders them to text or CSV, and
// bench_test.go exposes one testing.B benchmark per key.
//
// The supplied source text of the paper truncates before its evaluation
// section, so the experiments here reconstruct it from the claims of
// §§I–V and the methodology of the companion paper [16]: acceptance-ratio
// curves over normalized utilization for randomly generated task sets,
// split by task-set class (general / light / harmonic / K chains), plus
// breakdown-utilization, overhead and verification studies. EXPERIMENTS.md
// records the expected qualitative shape next to the measured output.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/bounds"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/task"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Seed drives every random draw; the same seed reproduces every table
	// bit-for-bit, regardless of Workers.
	Seed int64
	// SetsPerPoint is the number of random task sets per sweep point.
	// Zero means 200.
	SetsPerPoint int
	// Quick shrinks sweeps (fewer points, smaller M) for benchmarks and
	// smoke tests.
	Quick bool
	// Workers caps the goroutines evaluating task sets concurrently. Zero
	// means GOMAXPROCS. Determinism is preserved at any worker count: each
	// set's generator seed is derived from its index before fan-out.
	Workers int
	// Progress, when non-nil, receives one-line progress notes.
	Progress io.Writer
	// Paranoid re-validates every successful partitioning result against
	// the full invariant set (partition.ValidateFor) before it is counted.
	// A violation panics in the worker and surfaces as a seed-reproducible
	// SampleError through the panic isolation layer.
	Paranoid bool
	// Events, when non-nil, receives the structured run-event stream
	// (obs.RunEvent JSONL): experiment and sweep-point lifecycle, per-point
	// counter deltas, and sample errors with their repro seeds. Events are
	// emitted by the sweep-driving goroutine only — never from inside the
	// per-sample fan-out — and apart from the wall-clock ms stamp the stream
	// is deterministic for a fixed seed at any worker count. A nil recorder
	// costs nothing.
	Events *obs.Recorder

	// ctx carries the cancellation signal (set via WithContext); nil means
	// context.Background(). Cancellation is observed between samples and
	// between sweep points: completed rows are still returned alongside the
	// context error.
	ctx context.Context
	// expKey is the registry key of the running experiment, stamped by
	// Run/RunWithMetrics so SampleErrors can name it.
	expKey string
	// point1 is the 1-based sweep point index the current parEach fan-out
	// belongs to (0 = not inside a point sweep); sweepRows maintains it.
	point1 int
	// causes, when non-nil, collects the current point's rejection-cause
	// breakdown. sweepRows installs a fresh tally per point only when Events
	// is configured, so cause attribution is structurally absent — not merely
	// skipped — on the benchmarked hot path; acceptance() records into it.
	causes *causeTally
}

// causeTally accumulates one sweep point's rejection-cause breakdown, emitted
// on the point-done event as obs.RejectCount cells.
type causeTally struct {
	rejections []obs.RejectCount
}

// add folds one acceptance fan-out's per-sample causes (index-addressed,
// sample-major like the verdict array) into the tally. Aggregation iterates
// algorithms in spec order and causes in taxonomy declaration order, so the
// emitted breakdown is deterministic at any worker count.
func (t *causeTally) add(algos []algoSpec, causes []partition.Cause, nSets int) {
	counts := make(map[partition.Cause]int64, len(causes))
	for i, a := range algos {
		for k := range counts {
			delete(counts, k)
		}
		for s := 0; s < nSets; s++ {
			if cz := causes[s*len(algos)+i]; cz != partition.CauseNone {
				counts[cz]++
			}
		}
		for _, cz := range partition.RejectionCauses() {
			if n := counts[cz]; n > 0 {
				t.rejections = append(t.rejections, obs.RejectCount{Algo: a.name, Cause: cz.String(), N: n})
			}
		}
	}
}

// WithContext returns a copy of c whose experiment run observes ctx:
// cancellation or deadline expiry stops the run between samples, returning
// the rows completed so far together with the context's error.
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

// cSamplePanics counts recovered per-sample panics (injected or real);
// like all obs counters it is never read back by the analysis itself.
var cSamplePanics = obs.NewCounter("experiments.sample_panics")

// Cross-scale reuse instrumentation: memo_hits counts breakdownOf probes
// answered from the exact-C-vector memo without running the partitioner,
// carries counts uniBreakdown probes evaluated with a warm response carry.
var (
	cCrossScaleMemoHits = obs.NewCounter("experiments.crossscale.memo_hits")
	cCrossScaleCarries  = obs.NewCounter("experiments.crossscale.carries")
)

// cLightTwinReuses counts RM-TS verdicts (or whole breakdown bisections)
// copied from RM-TS/light on a light set instead of recomputed (eachAlgo);
// cBreakdownOverCapacity counts breakdownOf probes refused because the
// scaled set exceeds M processors' capacity.
var (
	cLightTwinReuses       = obs.NewCounter("experiments.light_twin_reuses")
	cBreakdownOverCapacity = obs.NewCounter("experiments.breakdown.over_capacity")
)

func (c Config) context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Validate reports configuration errors an experiment run cannot recover
// from. The zero value of SetsPerPoint is NOT valid here: entry points that
// accept a Config directly (Run, RunWithMetrics) require an explicit
// positive count, while the setsPerPoint default remains for internal
// callers constructing sweeps.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("experiments: Workers must be non-negative (got %d); zero means GOMAXPROCS", c.Workers)
	}
	if c.SetsPerPoint <= 0 {
		return fmt.Errorf("experiments: SetsPerPoint must be positive (got %d)", c.SetsPerPoint)
	}
	return nil
}

func (c Config) setsPerPoint() int {
	if c.SetsPerPoint <= 0 {
		return 200
	}
	return c.SetsPerPoint
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parEach evaluates fn for every index in [0, n) using the configured
// worker count. Each index receives a *rand.Rand seeded from base and the
// index, so results are independent of scheduling order; fn must only write
// to index-addressed storage (no shared mutable state). Each worker holds
// one pooled Workspace for its whole lifetime and reseeds one persistent
// RNG per index ((*rand.Rand).Seed(s) restores exactly the state of
// rand.New(rand.NewSource(s))), so the steady state allocates nothing per
// index.
//
// Robustness: each sample runs under recover — a panic in fn (a bug, a
// paranoid-mode invariant violation, or an injected fault) is converted to
// a *SampleError carrying the sample's derived seed, and sibling samples
// and workers keep running. Cancellation of the configured context is
// observed between indices; workers drain and the already-computed
// index-addressed results remain valid. The returned error is the first
// SampleError in index order, the context's error, or nil.
func (c Config) parEach(base int64, n int, fn func(i int, r *rand.Rand, ws *Workspace)) error {
	ctx := c.context()
	workers := c.workers()
	if workers > n {
		workers = n
	}
	panics := make([]error, n)
	run := func(i int, ws *Workspace) {
		defer func() {
			if v := recover(); v != nil {
				cSamplePanics.Inc()
				panics[i] = &SampleError{
					Experiment: c.expKey,
					Point:      c.point1 - 1,
					Index:      i,
					BaseSeed:   base,
					Seed:       base + int64(i)*sampleSeedStride,
					PanicValue: fmt.Sprint(v),
					Stack:      string(debug.Stack()),
				}
			}
		}()
		faultinject.MaybePanic()
		ws.rng.Seed(base + int64(i)*sampleSeedStride)
		fn(i, ws.rng, ws)
	}
	if workers <= 1 {
		ws := getWorkspace(c)
		defer putWorkspace(ws)
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			run(i, ws)
		}
		return firstError(panics)
	}
	var wg sync.WaitGroup
	next := int64(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := getWorkspace(c)
			defer putWorkspace(ws)
			for ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				run(i, ws)
			}
		}()
	}
	wg.Wait()
	if err := firstError(panics); err != nil {
		return err
	}
	return ctx.Err()
}

func (c Config) progressf(format string, args ...interface{}) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// Table is a rendered experiment artifact.
type Table struct {
	// ID is the experiment key plus an optional suffix for multi-table
	// experiments.
	ID string
	// Title is a human-readable caption.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, already formatted.
	Rows [][]string
	// Notes are free-form footnotes (expected shape, caveats).
	Notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	// One builder reused across rows; every cell (including the last) is
	// left-justified to its column width, exactly as %-*s padded it.
	var sb strings.Builder
	line := func(cells []string) {
		sb.Reset()
		sb.WriteString("  ")
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				// fmt's %-*s measures width in runes, not bytes; the Θ-bearing
				// headers depend on that, so the hand padding must too.
				for p := utf8.RuneCountInString(cell); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
		io.WriteString(w, sb.String())
	}
	line(t.Header)
	total := 2
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, "  "+strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values (quotes are not needed for
// the cell vocabulary these tables use).
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Experiment is a registry entry.
type Experiment struct {
	// Key is the stable identifier (DESIGN.md §4).
	Key string
	// Title is a one-line description.
	Title string
	// Run executes the experiment and returns its tables. A non-nil error
	// means the run could not produce its artifact (generator failure,
	// infeasible configuration); sweeps propagate it instead of panicking,
	// and cmd/experiments exits non-zero with the message.
	Run func(cfg Config) ([]Table, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{Key: "bounds-table", Title: "Parametric bound instantiations (§III/§V examples)", Run: BoundsTable},
		{Key: "acceptance-general", Title: "Acceptance ratio vs U_M, general task sets", Run: AcceptanceGeneral},
		{Key: "acceptance-light", Title: "Acceptance ratio vs U_M, light task sets", Run: AcceptanceLight},
		{Key: "acceptance-harmonic", Title: "Acceptance ratio vs U_M, harmonic task sets (Λ = 100%)", Run: AcceptanceHarmonic},
		{Key: "acceptance-kchains", Title: "K harmonic chains: bounds 82.8% (K=2) and 77.9% (K=3)", Run: AcceptanceKChains},
		{Key: "breakdown", Title: "Breakdown utilization per algorithm", Run: Breakdown},
		{Key: "procs-sweep", Title: "Acceptance vs processor count at fixed U_M", Run: ProcsSweep},
		{Key: "heavy-sweep", Title: "Acceptance vs heavy-task share (pre-assignment at work)", Run: HeavySweep},
		{Key: "split-ablation", Title: "MaxSplit: efficient testing-point vs binary search", Run: SplitAblation},
		{Key: "simulate-verify", Title: "Simulation oracle: zero misses across partitioned sets", Run: SimulateVerify},
		{Key: "utilization-tail", Title: "Schedulable sets beyond the L&L bound per algorithm", Run: UtilizationTail},
		{Key: "global-compare", Title: "Global fixed-priority (Dhall effect, RM-US) vs partitioned RM-TS", Run: GlobalCompare},
		{Key: "overhead-sensitivity", Title: "Dispatch/migration overhead sensitivity of RM-TS partitions", Run: OverheadSensitivity},
		{Key: "admission-ablation", Title: "Admission-test ablation: LL vs hyperbolic vs RTA vs RTA+splitting", Run: AdmissionAblation},
		{Key: "fp-vs-edf", Title: "Splitting FP (RM-TS) vs strict partitioned EDF", Run: FPvsEDF},
		{Key: "constrained-deadlines", Title: "Constrained deadlines (DM order) — acceptance vs tightness", Run: ConstrainedDeadlines},
		{Key: "analysis-pessimism", Title: "Observed response vs certified RTA bound (tightness of the analysis)", Run: AnalysisPessimism},
		{Key: "uni-breakdown", Title: "Classic uniprocessor RMS breakdown utilization (the cited ≈88%)", Run: UniprocessorBreakdown},
	}
}

// Find returns the experiment with the given key.
func Find(key string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Key == key {
			return e, true
		}
	}
	return Experiment{}, false
}

// SuggestKeys returns registry keys resembling the (unknown) key — exact
// prefixes and substring matches — for CLI "did you mean" diagnostics.
func SuggestKeys(key string) []string {
	var out []string
	lower := strings.ToLower(key)
	for _, e := range Registry() {
		if strings.Contains(e.Key, lower) || strings.Contains(lower, e.Key) ||
			strings.HasPrefix(e.Key, firstField(lower)) {
			out = append(out, e.Key)
		}
	}
	return out
}

func firstField(s string) string {
	if i := strings.IndexAny(s, "-_ "); i > 0 {
		return s[:i]
	}
	return s
}

// RunMetrics is the instrumentation record of one experiment run: the
// wall-clock duration plus the analysis-cost counters and histograms the
// run accumulated in the obs.Default registry (empty unless obs.SetEnabled
// was called). Counters are deterministic — identical totals for the same
// seed at any Workers count — while Seconds and Spans are wall-clock.
type RunMetrics struct {
	Key        string               `json:"key"`
	Seconds    float64              `json:"seconds"`
	Counters   []obs.CounterValue   `json:"counters"`
	Histograms []obs.HistogramValue `json:"histograms,omitempty"`
	Spans      []obs.SpanValue      `json:"spans,omitempty"`
}

// Run validates cfg and executes e. It is the checked entry point CLI-style
// callers should use; e.Run remains available for internal callers that
// construct configs programmatically.
func Run(e Experiment, cfg Config) ([]Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.expKey = e.Key
	return cfg.runTraced(e)
}

// RunWithMetrics runs e with the obs.Default registry rearmed, attaching
// the resulting counter snapshot and timing to the returned RunMetrics.
// Tables are produced exactly as by e.Run — instrumentation never alters
// experiment output, only observes it. Like Run, it validates cfg first.
func RunWithMetrics(e Experiment, cfg Config) ([]Table, RunMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, RunMetrics{}, err
	}
	cfg.expKey = e.Key
	obs.Reset()
	span := obs.StartSpan("experiment/" + e.Key)
	start := time.Now()
	tables, err := cfg.runTraced(e)
	span.End()
	snap := obs.Default.Snapshot()
	return tables, RunMetrics{
		Key:        e.Key,
		Seconds:    time.Since(start).Seconds(),
		Counters:   snap.Counters,
		Histograms: snap.Histograms,
		Spans:      snap.Spans,
	}, err
}

// runTraced brackets e.Run with experiment lifecycle events on the
// configured recorder; a SampleError additionally gets its own record
// carrying the repro seeds. With a nil recorder this is exactly e.Run.
func (c Config) runTraced(e Experiment) ([]Table, error) {
	c.Events.Emit(obs.RunEvent{Kind: obs.EvExperimentStart, Experiment: e.Key})
	tables, err := e.Run(c)
	end := obs.RunEvent{Kind: obs.EvExperimentEnd, Experiment: e.Key, Tables: len(tables)}
	if err != nil {
		end.Err = err.Error()
		var se *SampleError
		if errors.As(err, &se) {
			c.Events.Emit(obs.RunEvent{
				Kind:       obs.EvSampleError,
				Experiment: e.Key,
				Point:      se.Point + 1,
				Sample:     se.Index + 1,
				BaseSeed:   se.BaseSeed,
				SampleSeed: se.Seed,
				Panic:      se.PanicValue,
			})
		}
	}
	c.Events.Emit(end)
	return tables, err
}

// Render writes the metrics as comment-prefixed lines, safe to interleave
// with table or CSV output without breaking parsers.
func (m RunMetrics) Render(w io.Writer) {
	fmt.Fprintf(w, "# metrics %s (%.3fs wall)\n", m.Key, m.Seconds)
	for _, c := range m.Counters {
		fmt.Fprintf(w, "#   %-26s %d\n", c.Name, c.Value)
	}
	for _, h := range m.Histograms {
		fmt.Fprintf(w, "#   %-26s count=%d mean=%.2f max=%d\n", h.Name, h.Count, h.Mean(), h.Max)
	}
	for _, s := range m.Spans {
		fmt.Fprintf(w, "#   span %-21s %.3fs\n", s.Name, s.Seconds)
	}
}

// algoSpec couples an algorithm with the acceptance notion the comparison
// uses: a set counts as accepted when the partitioning succeeds AND the
// algorithm's theory guarantees schedulability (Result.Guaranteed). For the
// RTA-based algorithms the two coincide; for SPA1/SPA2 Guaranteed caps at
// the L&L bound, which is precisely the behaviour the paper criticizes.
type algoSpec struct {
	name string
	alg  partition.Algorithm
}

func defaultAlgos() []algoSpec {
	return []algoSpec{
		{"RM-TS", partition.NewRMTS(bounds.Best())},
		{"SPA2", partition.SPA2{}},
		{"P-RM-FF", partition.FirstFitRTA{}},
	}
}

func lightAlgos() []algoSpec {
	return []algoSpec{
		{"RM-TS/light", partition.RMTSLight{}},
		{"RM-TS", partition.NewRMTS(nil)},
		{"SPA1", partition.SPA1{}},
		{"SPA2", partition.SPA2{}},
	}
}

// eachAlgo evaluates every algorithm of algos on ts through eval(i), except
// that an RM-TS whose light twin (partition.RMTS.LightTwin) is also in
// algos, at index j, gets reuse(i, j) instead: on a light set the two
// produce identical results, so the twin's verdict is copied. RM-TS
// entries run in a second pass, after every twin; callers address results
// by index, so the order does not show in the output.
func eachAlgo(algos []algoSpec, ts task.Set, eval func(i int), reuse func(i, j int)) {
	for _, second := range [2]bool{false, true} {
		for i, a := range algos {
			rm, isRM := a.alg.(*partition.RMTS)
			if isRM != second {
				continue
			}
			if isRM {
				if j := twinIndex(algos, rm, ts); j >= 0 {
					cLightTwinReuses.Inc()
					reuse(i, j)
					continue
				}
			}
			eval(i)
		}
	}
}

// twinIndex returns the index of rm's light twin on ts in algos, or -1.
func twinIndex(algos []algoSpec, rm *partition.RMTS, ts task.Set) int {
	twin, ok := rm.LightTwin(ts)
	if !ok {
		return -1
	}
	for j, a := range algos {
		if a.alg == partition.Algorithm(twin) {
			return j
		}
	}
	return -1
}

// acceptance runs one sweep point: nSets random sets from genSet (set s
// drawn from its own index-derived generator into the worker's scratch,
// evaluated across the configured workers), each offered to every
// algorithm; returns the acceptance ratio per algorithm. Verdicts land in
// one flat index-addressed array, so the per-sample loop itself is
// allocation-free.
func (c Config) acceptance(base int64, nSets, m int, genSet func(s int, r *rand.Rand, sc *gen.Scratch) (task.Set, error), algos []algoSpec) ([]float64, error) {
	results := make([]bool, nSets*len(algos))
	var causes []partition.Cause
	if c.causes != nil {
		causes = make([]partition.Cause, nSets*len(algos))
	}
	errs := make([]error, nSets)
	if err := c.parEach(base, nSets, func(s int, r *rand.Rand, ws *Workspace) {
		ts, err := genSet(s, r, ws.Gen())
		if err != nil {
			errs[s] = err
			return
		}
		row := results[s*len(algos) : (s+1)*len(algos)]
		var cause []partition.Cause
		if causes != nil {
			cause = causes[s*len(algos) : (s+1)*len(algos)]
		}
		eachAlgo(algos, ts, func(i int) {
			res := ws.Partition(algos[i].alg, ts, m)
			row[i] = res.OK && res.Guaranteed
			if cause != nil {
				cause[i] = res.RejectionCause()
			}
		}, func(i, j int) {
			row[i] = row[j]
			if cause != nil {
				cause[i] = cause[j]
			}
		})
	}); err != nil {
		return nil, err
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}
	if c.causes != nil {
		c.causes.add(algos, causes, nSets)
	}
	out := make([]float64, len(algos))
	for s := 0; s < nSets; s++ {
		for i := range algos {
			if results[s*len(algos)+i] {
				out[i]++
			}
		}
	}
	for i := range out {
		out[i] /= float64(nSets)
	}
	return out, nil
}

// sweepRows drives a point sweep robustly: it checks cancellation before
// every point and computes each via compute (run under a Config whose
// point1 marks the point for SampleError attribution). On cancellation or
// a sample failure it returns the rows completed so far together with the
// error, so callers can still render a partial table.
//
// compute receives the per-point Config pc and must thread it into parEach
// (not the captured outer cfg) or point attribution and cancellation are
// lost.
func (c Config) sweepRows(id string, n int, compute func(pc Config, i int) ([]float64, error)) ([][]float64, error) {
	rows := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := c.context().Err(); err != nil {
			return rows, err
		}
		pc := c
		pc.point1 = i + 1
		// Per-point counter attribution for the event stream: the registry
		// delta across the point's fan-out (RTA iterations, warm-starts,
		// splits, ...) is worker-invariant, so the recorded stream is
		// deterministic apart from wall-clock stamps. Snapshots happen only
		// here, between points, never inside the fan-out.
		var before obs.Snapshot
		if c.Events != nil {
			before = obs.Default.Snapshot()
			pc.causes = &causeTally{}
		}
		row, err := compute(pc, i)
		if err != nil {
			return rows, err
		}
		if c.Events != nil {
			c.Events.Emit(obs.RunEvent{Kind: obs.EvPointDone,
				Experiment: c.expKey, Label: id, Point: i + 1, Points: n,
				Counters:   obs.DiffCounters(before, obs.Default.Snapshot()),
				Rejections: pc.causes.rejections})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// pointBases pre-draws one parEach base seed per sweep point from r: point
// i's base is the i-th draw, fixed before any point runs. The golden tables
// and the replay recipes (replay.go re-derives a base the same way) depend
// on exactly this stream, so the draws stay up front, outside the sweep.
func pointBases(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

// sweepTable renders a U_M sweep as a table: one row per utilization point,
// one column per algorithm.
func sweepTable(id, title string, points []float64, algos []algoSpec, ratios [][]float64, notes ...string) Table {
	header := []string{"U_M"}
	for _, a := range algos {
		header = append(header, a.name)
	}
	t := Table{ID: id, Title: title, Header: header, Notes: notes}
	for i, p := range points {
		// strconv.FormatFloat is what fmt's %.3f verb bottoms out in; calling
		// it directly skips the format-string parse and interface boxing on
		// the one cell shape every sweep table renders thousands of times.
		row := make([]string, 0, 1+len(ratios[i]))
		row = append(row, strconv.FormatFloat(p, 'f', 3, 64))
		for _, v := range ratios[i] {
			row = append(row, strconv.FormatFloat(v, 'f', 3, 64))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// seq returns the sweep points from, from+step, …, up to and including to
// (within 1e-9 tolerance). Points are generated as from + i·step with an
// integer count rather than by accumulation: repeated `v += step` builds up
// float error, and for ranges like seq(0.65, 0.95, 0.10) the accumulated
// last point lands above to+1e-9 and silently drops from the sweep.
func seq(from, to, step float64) []float64 {
	k := int((to-from)/step + 1e-9)
	out := make([]float64, 0, k+1)
	for i := 0; i <= k; i++ {
		out = append(out, from+float64(i)*step)
	}
	return out
}

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// firstError returns the first non-nil entry of a per-index error slice
// (the race-free way for parEach workers to report failures: each worker
// writes only its own index, and the scan happens after the barrier).
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// meanAndRange formats mean (min–max) of a sample.
func meanAndRange(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	sort.Float64s(xs)
	return fmt.Sprintf("%.3f (%.3f–%.3f)", stats.Mean(xs), xs[0], xs[len(xs)-1])
}

package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/partition"
)

// committedDigest is the sha256 of the rendered tables at publication scale
// for seed 1 (see renderTables), one "seed hex" line.
//
//go:embed tables.sha256
var committedDigest string

// minPasses is the fewest table passes a run makes, however long they take.
const minPasses = 3

func experimentKeys() []string {
	var keys []string
	for _, e := range experiments.Registry() {
		keys = append(keys, e.Key)
	}
	return keys
}

// paperConfig is the publication-scale configuration cmd/experiments runs
// by default, with one worker per CPU.
func paperConfig(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, SetsPerPoint: 200, Workers: runtime.NumCPU()}
}

// renderTables renders tables as cmd/experiments prints them, minus the
// output that does not repeat run to run:
//   - split-ablation times its own two implementations: its wall-clock
//     cells and speedup note are masked;
//   - acceptance-kchains' "for this set size" note reports the bound of
//     whichever sample a worker generated last (the workers share the
//     variable), so with more than one worker it varies between runs.
//
// Everything else in the output is deterministic for a seed.
func renderTables(buf *bytes.Buffer, key string, tables []experiments.Table) {
	for _, t := range tables {
		switch key {
		case "split-ablation":
			t.Rows = maskTimings(t.Rows)
			t.Notes = dropNotes(t.Notes, "speedup")
		case "acceptance-kchains":
			t.Notes = dropNotes(t.Notes, "for this set size")
		}
		t.Render(buf)
	}
}

func dropNotes(notes []string, marker string) []string {
	var out []string
	for _, n := range notes {
		if !strings.Contains(n, marker) {
			out = append(out, n)
		}
	}
	return out
}

func maskTimings(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		r := append([]string(nil), row...)
		for j := 1; j < len(r)-1; j++ {
			r[j] = "-"
		}
		out[i] = r
	}
	return out
}

// paperPass regenerates every table once, untraced, and returns the digest
// of the rendered output, the number of experiments run and the E2 tables.
func paperPass(seed int64) (digest string, runs int, e2 []experiments.Table, err error) {
	cfg := paperConfig(seed)
	var buf bytes.Buffer
	for _, e := range experiments.Registry() {
		tables, err := experiments.Run(e, cfg)
		runs++
		if err != nil {
			return "", runs, nil, fmt.Errorf("%s: %w", e.Key, err)
		}
		if e.Key == "acceptance-general" {
			e2 = tables
		}
		renderTables(&buf, e.Key, tables)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), runs, e2, nil
}

// checkDigest compares a pass digest with the run's first pass and, on the
// first pass of seed 1, with the committed digest.
func checkDigest(rep *report, seed int64, first, got string, pass int) {
	if got != first {
		rep.fail("table digest changed between passes: %s then %s", first, got)
	}
	if seed != 1 || pass != 0 {
		return
	}
	want := strings.Fields(committedDigest)
	if len(want) != 2 || want[0] != "1" || want[1] != got {
		rep.fail("seed-1 table digest %s does not match the committed %q", got, strings.TrimSpace(committedDigest))
	}
}

// runPaperEval is the paper-eval end-to-end run: regenerate every table at
// publication scale, repeatedly, for the measured time. After each pass the
// E2 sets are judged again one at a time, which gives the per-set verdict
// latency and checks the replay against the table.
func runPaperEval(o options, _ workload, rep *report) error {
	setup, err := harnessSetup(o.experiments)
	if err != nil {
		return err
	}
	var lat [][]float64
	var passes []float64
	var first string
	var attempted, failed int64
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < time.Duration(o.seconds)*time.Second {
		passStart := time.Now()
		digest, runs, e2, err := paperPass(o.seed)
		attempted += int64(runs)
		if err != nil {
			failed++
			rep.fail("pass %d: %v", len(passes)+1, err)
			break
		}
		passes = append(passes, time.Since(passStart).Seconds())
		if first == "" {
			first = digest
		}
		checkDigest(rep, o.seed, first, digest, len(passes)-1)
		sets, err := replayE2(o.seed, e2, rep, nil)
		if err != nil {
			return err
		}
		lat = append(lat, sets)
	}
	rep.info("table digest %s over %d passes", first, len(passes))
	rep.info("eval_s (median pass, every table regenerated) %.4f s", median(passes))
	s := summarizeWindows(lat)
	rep.info("E2 set verdict latency us, median over %d passes: %v", len(lat), s)
	rep.attempted, rep.failed = attempted, failed
	rep.set("setup_s", setup, "s")
	rep.set("peak_rss_mb", selfHWM(), "MB")
	rep.set("ops_per_s", float64(len(experiments.Registry()))/median(passes), "1/s")
	rep.set("p50_us", s.P50, "us")
	rep.set("success_ratio", float64(attempted-failed)/float64(attempted), "ratio")
	return nil
}

// harnessSetup times the paper harness from process spawn until it has
// parsed its flags and built its registry — everything before the first
// sample is evaluated — as the median of several spawns of cmd/experiments.
func harnessSetup(bin string) (float64, error) {
	var xs []float64
	for i := 0; i < 9; i++ {
		start := time.Now()
		out, err := exec.Command(bin, "-list").Output()
		if err != nil {
			return 0, fmt.Errorf("experiments -list: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
		if !bytes.Contains(out, []byte("acceptance-general")) {
			return 0, fmt.Errorf("experiments -list did not list acceptance-general")
		}
	}
	return median(xs), nil
}

// paperLayers is the traced half of the paper pipeline: an untraced
// reference pass, a pass through RunWithMetrics per experiment, and an E2
// replay through the generator and the partitioners one set at a time.
func paperLayers(o options, rep *report, rec *recorder) error {
	obs.SetEnabled(false)
	refStart := time.Now()
	refDigest, _, _, err := paperPass(o.seed)
	if err != nil {
		return err
	}
	ref := time.Since(refStart).Seconds()

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	cfg := paperConfig(o.seed)
	counters := map[string]int64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	var e2 []experiments.Table
	tracedStart := time.Now()
	for _, e := range experiments.Registry() {
		tables, rm, err := experiments.RunWithMetrics(e, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Key, err)
		}
		rep.set("experiments."+e.Key+"_s", rm.Seconds, "s")
		for _, c := range rm.Counters {
			counters[c.Name] += c.Value
		}
		if e.Key == "acceptance-general" {
			e2 = tables
		}
		renderTables(&buf, e.Key, tables)
	}
	traced := time.Since(tracedStart).Seconds()
	runtime.ReadMemStats(&after)
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != refDigest {
		rep.fail("traced tables digest %s differs from untraced %s", got, refDigest)
	}
	rep.set("experiments.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6, "MB")
	rep.set("experiments.mallocs", float64(after.Mallocs-before.Mallocs), "count")
	rep.set("experiments.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	ratio := func(num, den string) float64 {
		if counters[den] == 0 {
			return 0
		}
		return float64(counters[num]) / float64(counters[den])
	}
	rep.set("rta.calls", float64(counters["rta.calls"]), "count")
	rep.set("rta.iterations", float64(counters["rta.iterations"]), "count")
	rep.set("rta.iters_per_call", ratio("rta.iterations", "rta.calls"), "ratio")
	rep.set("rta.warm_start_ratio", ratio("rta.cache.warm_starts", "rta.calls"), "ratio")
	rep.set("partition.prefilter_hit_ratio", ratio("partition.prefilter.hits", "partition.assign.attempts"), "ratio")
	rep.set("partition.splits", float64(counters["partition.splits"]), "count")
	rep.set("split.tp_calls", float64(counters["split.tp.calls"]), "count")
	rep.set("experiments.crossscale_memo_hits", float64(counters["experiments.crossscale.memo_hits"]), "count")
	rep.set("trace.paper_overhead_pct", (traced-ref)/ref*100, "%")
	rep.info("paper pass: untraced %.3fs, traced %.3fs", ref, traced)

	obs.SetEnabled(false)
	lat, err := replayE2(o.seed, e2, rep, rec)
	if err != nil {
		return err
	}
	genUS, _ := rec.layer("gen", len(lat))
	rep.set("gen.set_us", median(ofClass(genUS, nil, "")), "us")
	for _, a := range e2Algos() {
		d, _ := rec.layer(a.metric, len(lat))
		rep.set(a.metric, median(ofClass(d, nil, "")), "us")
	}
	return nil
}

// e2Algos mirrors the E2 sweep's algorithm list (experiments.defaultAlgos):
// the accept-count check below proves the replay runs the same analyses.
func e2Algos() []struct {
	metric string
	alg    partition.ArenaPartitioner
} {
	return []struct {
		metric string
		alg    partition.ArenaPartitioner
	}{
		{"partition.rm-ts_us", partition.NewRMTS(bounds.Max{Bounds: []bounds.PUB{
			bounds.LiuLayland{}, bounds.HarmonicChain{Minimal: true}, bounds.TBound{}, bounds.RBound{},
		}})},
		{"partition.spa2_us", partition.SPA2{}},
		{"partition.p-rm-ff_us", partition.FirstFitRTA{}},
	}
}

// replayE2 regenerates every E2 sample with RecipeFor/ReplaySample and
// offers it to each E2 algorithm through one persistent Arena, then checks
// each algorithm's accept count per point against the ratio the E2 table
// printed. It returns each set's verdict latency (generate plus all three
// analyses, µs); with a recorder it also records a span per call.
func replayE2(seed int64, e2 []experiments.Table, rep *report, rec *recorder) ([]float64, error) {
	if len(e2) != 1 {
		return nil, fmt.Errorf("acceptance-general rendered %d tables, want 1", len(e2))
	}
	const key = "acceptance-general"
	sets := paperConfig(seed).SetsPerPoint
	algos := e2Algos()
	var arena partition.Arena
	var lat []float64
	for p, row := range e2[0].Rows {
		accepted := make([]int, len(algos))
		for s := 0; s < sets; s++ {
			rc, err := experiments.RecipeFor(key, seed, false, p, s)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			ts, m, err := experiments.ReplaySample(key, false, p, rc.SampleSeed)
			if err != nil {
				return nil, err
			}
			if rec != nil {
				rec.record("gen", len(lat), "set", start, time.Now())
			}
			for i, a := range algos {
				t0 := time.Now()
				res := a.alg.PartitionArena(ts, m, &arena)
				if rec != nil {
					rec.record(a.metric, len(lat), "set", t0, time.Now())
				}
				if res.OK && res.Guaranteed {
					accepted[i]++
				}
			}
			lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
		}
		for i := range algos {
			ratio, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("E2 row %d: %w", p, err)
			}
			if want := int(ratio*float64(sets) + 0.5); accepted[i] != want {
				rep.fail("E2 replay point %d %s accepted %d sets, the table says %d", p, e2[0].Header[i+1], accepted[i], want)
			}
		}
	}
	return lat, nil
}

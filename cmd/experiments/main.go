// Command experiments regenerates the paper's evaluation tables (see
// DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured records).
//
// Usage:
//
//	experiments -list
//	experiments -run acceptance-general [-sets 500] [-seed 1] [-quick] [-csv]
//	experiments -all [-sets 200]
//
// Each completed sweep point prints one "<label>: <point> done" line on
// stderr (-q silences them). Observability flags: -metrics prints a
// per-experiment counter snapshot (RTA iterations, splits, ...) to stderr
// after the tables (stdout carries only tables/CSV, so machine parsing is
// never disturbed); -metrics-json writes the same snapshots as a
// schema-versioned JSON document; -events appends a JSONL flight-recorder
// stream (run/experiment/point lifecycle, per-point counter deltas, sample
// errors with repro seeds); -cpuprofile/-memprofile write pprof profiles.
// None of them alter the table output — it stays bit-for-bit identical for
// a given seed (DESIGN.md §10).
//
// Robustness flags (DESIGN.md §9): -timeout bounds the whole run; SIGINT or
// SIGTERM cancels it gracefully — in both cases workers drain, completed
// sweep rows are still printed, and the exit status is 1. -paranoid
// re-validates every successful partitioning against the full invariant
// set; a violation aborts only that sample and is reported with a
// deterministic replay recipe.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

// metricsDoc is the -metrics-json document: one schema-versioned file with
// an entry per executed experiment. Counters/histograms are deterministic
// for a fixed seed; seconds and spans are wall-clock.
type metricsDoc struct {
	Schema int               `json:"schema"`
	Runs   []runMetricsEntry `json:"runs"`
}

type runMetricsEntry struct {
	Key        string                `json:"key"`
	Seconds    float64               `json:"seconds"`
	Counters   []obs.CounterValue    `json:"counters"`
	Histograms []obs.HistogramExport `json:"histograms,omitempty"`
	Spans      []obs.SpanValue       `json:"spans,omitempty"`
}

func run() int {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		run        = flag.String("run", "", "experiment key to run")
		all        = flag.Bool("all", false, "run every experiment")
		sets       = flag.Int("sets", 200, "task sets per sweep point")
		seed       = flag.Int64("seed", 1, "random seed")
		quick      = flag.Bool("quick", false, "reduced sweeps (benchmark scale)")
		csv        = flag.Bool("csv", false, "CSV output instead of aligned tables")
		quiet      = flag.Bool("q", false, "suppress progress output")
		workers    = flag.Int("workers", 0, "concurrent workers for set evaluation (0 = GOMAXPROCS; results are identical at any count)")
		metrics    = flag.Bool("metrics", false, "print per-experiment analysis-cost counters to stderr after the tables")
		metricsOut = flag.String("metrics-json", "", "write per-experiment metric snapshots (schema-versioned JSON) to this file")
		events     = flag.String("events", "", "write a JSONL run-event stream (experiment/point lifecycle, sample errors) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		timeout    = flag.Duration("timeout", 0, "overall wall-clock deadline for the run (0 = none); on expiry workers drain and completed sweep rows are still printed")
		paranoid   = flag.Bool("paranoid", false, "re-validate every successful partitioning against the full invariant set (slower); a violation aborts that sample with a seed-reproducible report")
	)
	flag.Parse()

	if *list {
		// One write for the whole listing, not a write syscall per line:
		// -list does no other work, so its cost is the start and the output.
		var b strings.Builder
		for _, e := range experiments.Registry() {
			fmt.Fprintf(&b, "%-22s %s\n", e.Key, e.Title)
		}
		os.Stdout.WriteString(b.String())
		return 0
	}
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		os.Exit(2)
	}
	if *workers < 0 {
		fail("-workers must be non-negative (got %d)", *workers)
	}
	if *sets <= 0 {
		fail("-sets must be positive (got %d)", *sets)
	}
	if *run != "" && *all {
		fail("-run and -all are mutually exclusive")
	}
	if *timeout < 0 {
		fail("-timeout must be non-negative (got %v)", *timeout)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.Config{Seed: *seed, SetsPerPoint: *sets, Quick: *quick,
		Workers: *workers, Paranoid: *paranoid}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	// Cancellation: an optional overall deadline, and SIGINT/SIGTERM for
	// interactive/orchestrated interruption. Both cancel the same context;
	// sweeps drain their workers and hand back the rows completed so far.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg = cfg.WithContext(ctx)

	var toRun []experiments.Experiment
	switch {
	case *all:
		toRun = experiments.Registry()
	case *run != "":
		e, ok := experiments.Find(*run)
		if !ok {
			msg := fmt.Sprintf("unknown key %q (use -list)", *run)
			if sug := experiments.SuggestKeys(*run); len(sug) > 0 {
				msg += "; did you mean " + strings.Join(sug, ", ") + "?"
			}
			fail("%s", msg)
		}
		toRun = []experiments.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "experiments: need -run <key>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}

	// Any export surface needs the counters collected; enabling them never
	// alters experiment output (the golden tests pin this).
	if *metrics || *metricsOut != "" || *events != "" {
		obs.SetEnabled(true)
	}

	var rec *obs.Recorder
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fail("events: %v", err)
		}
		rec = obs.NewRecorder(f)
		rec.Emit(obs.RunEvent{Kind: obs.EvRunStart, Schema: obs.EventSchemaVersion,
			GoVersion: runtime.Version(), Seed: *seed, Sets: *sets, Quick: *quick,
			Workers: *workers})
		cfg.Events = rec
	}
	var metricsFile *os.File
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fail("metrics-json: %v", err)
		}
		metricsFile = f
	}
	exit := 0
	var metricRuns []runMetricsEntry
	for _, e := range toRun {
		tables, rm, err := experiments.RunWithMetrics(e, cfg)
		// Render whatever completed — on cancellation or a sample failure
		// the experiment returns the rows finished before the interruption.
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s — %s\n", t.ID, t.Title)
				t.CSV(os.Stdout)
				fmt.Println()
			} else {
				t.Render(os.Stdout)
			}
		}
		// The metrics report goes to stderr: stdout carries only tables
		// (aligned or CSV), so piping -csv output into a parser stays safe.
		if *metrics {
			rm.Render(os.Stderr)
			fmt.Fprintln(os.Stderr)
		}
		if metricsFile != nil {
			metricRuns = append(metricRuns, runMetricsEntry{
				Key:        rm.Key,
				Seconds:    rm.Seconds,
				Counters:   rm.Counters,
				Histograms: obs.ExportHistograms(rm.Histograms),
				Spans:      rm.Spans,
			})
		}
		if err != nil {
			exit = 1
			var se *experiments.SampleError
			if errors.As(err, &se) {
				fmt.Fprintf(os.Stderr, "experiments: %v\n%s\n", err, se.Repro())
			} else {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
			if ctx.Err() != nil {
				// Cancelled or timed out: later experiments would return
				// immediately and emptily — stop here.
				break
			}
		}
	}

	if rec != nil {
		rec.Emit(obs.RunEvent{Kind: obs.EvRunEnd})
		if err := rec.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: events: %v\n", err)
			return 1
		}
	}
	if metricsFile != nil {
		enc := json.NewEncoder(metricsFile)
		enc.SetIndent("", "  ")
		err := enc.Encode(metricsDoc{Schema: obs.SnapshotSchemaVersion, Runs: metricRuns})
		if cerr := metricsFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics-json: %v\n", err)
			return 1
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: memprofile: %v\n", err)
			return 1
		}
	}
	return exit
}

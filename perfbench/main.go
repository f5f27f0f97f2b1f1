// Command perfbench is the repository benchmark. It runs one named
// workload against the real programs and prints every metric by name with
// its unit, then one JSON result line:
//
//	perfbench -workload paper-eval|admit-mem|admit-durable -seed n -seconds s -trace 0|1
//	          -admitd path -experiments path -work dir
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it runs
// the traced replay that attributes cost to each layer. run.sh builds the
// binaries from the checkout and supplies the path flags. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one JSON result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares, with
// their units; every run prints exactly one of the two sets.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"success_ratio", "ratio"},
}

var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, k := range experimentKeys() {
		add("s", "experiments."+k+"_s")
	}
	add("MB", "experiments.alloc_mb")
	add("count", "experiments.mallocs", "experiments.gc_cycles")
	add("us", "gen.set_us", "partition.rm-ts_us", "partition.spa2_us", "partition.p-rm-ff_us")
	add("count", "rta.calls", "rta.iterations")
	add("ratio", "rta.iters_per_call", "rta.warm_start_ratio", "partition.prefilter_hit_ratio")
	add("count", "partition.splits", "split.tp_calls", "experiments.crossscale_memo_hits")
	add("us", "engine.accept_us", "engine.reject_us", "engine.remove_us")
	add("us", "cluster.accept_us", "cluster.reject_us", "cluster.remove_us", "cluster.self_us")
	add("ratio", "cluster.memo_hit_ratio")
	add("count", "cluster.allocs_per_op")
	add("B", "cluster.bytes_per_op")
	add("us", "journal.accept_us", "journal.remove_us", "journal.self_us")
	add("count", "journal.fsyncs_per_mutation")
	add("B", "journal.bytes_per_mutation")
	add("count", "journal.snapshots")
	add("us", "handler.accept_us", "handler.reject_us", "handler.remove_us", "handler.self_us")
	add("count", "handler.allocs_per_op")
	add("us", "socket.rtt_us")
	add("count", "server.gate_queued", "server.gate_shed")
	add("us", "server.admit_p50_us")
	add("s", "server.cpu_s", "loadgen.cpu_s")
	add("s", "recovery.attach_s", "recovery.restart_s")
	add("count", "recovery.replayed_records")
	add("%", "trace.paper_overhead_pct", "trace.engine_overhead_pct")
	return out
}()

// report collects one run's metrics and prints the human-readable lines.
type report struct {
	out       io.Writer
	metrics   map[string]metric
	correct   bool
	attempted int64
	failed    int64
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}, correct: true}
}

// set records a JSON metric and prints it.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "  %-34s %14.4f %s\n", name, v, unit)
}

// info prints a human-readable line that is not a JSON metric.
func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.out, "  "+format+"\n", args...)
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(r.out, "  CHECK FAILED: "+format+"\n", args...)
}

// finish checks the metric set against the declared one and prints the
// JSON line.
func (r *report) finish(declared []struct{ name, unit string }) error {
	for _, d := range declared {
		m, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %s, declared %s", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", d.name, m.Value)
		}
	}
	if len(r.metrics) != len(declared) {
		var extra []string
		for name := range r.metrics {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return fmt.Errorf("measured %d metrics, declared %d: %v", len(r.metrics), len(declared), extra)
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, string(line))
	return nil
}

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	admitd      string
	experiments string
	work        string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: paper-eval, admit-mem or admit-durable")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds the timed phase measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	fs.StringVar(&o.admitd, "admitd", "", "path of the built cmd/admitd binary")
	fs.StringVar(&o.experiments, "experiments", "", "path of the built cmd/experiments binary")
	fs.StringVar(&o.work, "work", "", "scratch directory for daemon data and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want paper-eval, admit-mem or admit-durable)\n", o.workload)
		return 2
	case o.seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1\n")
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	case o.admitd == "" || o.experiments == "" || o.work == "":
		fmt.Fprintf(stderr, "perfbench: -admitd, -experiments and -work are required (run.sh sets them)\n")
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	rep := newReport(stdout)
	mode := "end-to-end"
	declared := endToEnd
	if o.trace {
		mode, declared = "traced", perLayer
	}
	fmt.Fprintf(stdout, "perfbench %s %s seed=%d seconds=%d\n", o.workload, mode, o.seed, o.seconds)
	start := time.Now()
	var err error
	if o.trace {
		err = runTraced(o, w, rep)
	} else {
		err = w.run(o, w, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.info("run wall %.2fs", time.Since(start).Seconds())
	if err := rep.finish(declared); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

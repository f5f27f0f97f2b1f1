// Command perfdiff is the perf-regression gate over the machine-readable
// bench records ci.sh emits (BENCH_hotpath.json): it diffs two records
// metric by metric under per-metric growth tolerances, prints an aligned
// table, and exits non-zero when a gated metric regressed — so a hot-path
// slowdown or allocation creep fails CI instead of landing silently.
//
// Usage:
//
//	perfdiff [flags] OLD.json NEW.json
//	perfdiff -validate-events FILE.jsonl
//	perfdiff -validate-prom FILE.txt
//	perfdiff -validate-access-log FILE.jsonl
//
// Tolerances are fractional growth allowances: -allocs-tol 0.10 accepts up
// to +10% allocs/op. Metrics listed in -warn only warn on regression —
// timing (ns/op) is inherently noisy in CI, while allocs/op is
// deterministic and gates hard. Exit status: 0 clean (or warnings only),
// 1 regression, 2 usage error.
//
// The second form validates a JSONL run-event log written by
// `experiments -events` against the strict event schema (see
// internal/obs), so CI can lint the telemetry stream it just produced.
// The third validates a Prometheus text exposition (as served by admitd's
// /metrics or captured by `admitd -scrape`), and the fourth an admitd JSONL
// access log — together they are ci.sh's metrics-lint step.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/perfdiff"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nsTol     = flag.Float64("ns-tol", 0.50, "allowed fractional ns/op growth")
		bytesTol  = flag.Float64("bytes-tol", 0.50, "allowed fractional B/op growth")
		allocsTol = flag.Float64("allocs-tol", 0.10, "allowed fractional allocs/op growth")
		extraTol  = flag.Float64("extra-tol", 0.50, "allowed fractional growth of domain metrics (rta-iters/op, ...); warm-starts/op and prefilter-hits/op count cheap paths and are reported ungated")
		warn      = flag.String("warn", "", "comma-separated metrics that only warn on regression (e.g. 'ns/op,B/op')")
		validate  = flag.String("validate-events", "", "validate a JSONL run-event log instead of diffing bench records")
		valProm   = flag.String("validate-prom", "", "validate a Prometheus text exposition instead of diffing bench records")
		valAccess = flag.String("validate-access-log", "", "validate an admitd JSONL access log instead of diffing bench records")
	)
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "perfdiff: "+format+"\n", args...)
		os.Exit(2)
	}
	for name, v := range map[string]float64{
		"-ns-tol": *nsTol, "-bytes-tol": *bytesTol, "-allocs-tol": *allocsTol, "-extra-tol": *extraTol,
	} {
		if v < 0 {
			fail("%s must be non-negative (got %v)", name, v)
		}
	}

	modes := 0
	for _, m := range []string{*validate, *valProm, *valAccess} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		fail("-validate-events, -validate-prom and -validate-access-log are mutually exclusive")
	}
	if modes == 1 {
		if flag.NArg() != 0 {
			fail("validate modes take no positional arguments (got %d)", flag.NArg())
		}
		path, kind, check := *validate, "event log", func(f *os.File) (int, string, error) {
			n, err := obs.ValidateEventLog(f)
			return n, fmt.Sprintf("%d events, schema v%d", n, obs.EventSchemaVersion), err
		}
		switch {
		case *valProm != "":
			path, kind, check = *valProm, "prometheus exposition", func(f *os.File) (int, string, error) {
				n, err := obs.ValidatePrometheusText(f)
				return n, fmt.Sprintf("%d metric families", n), err
			}
		case *valAccess != "":
			path, kind, check = *valAccess, "access log", func(f *os.File) (int, string, error) {
				n, err := obs.ValidateAccessLog(f)
				return n, fmt.Sprintf("%d records, schema v%d", n, obs.AccessSchemaVersion), err
			}
		}
		f, err := os.Open(path)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		_, summary, err := check(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfdiff: %s: invalid %s: %v\n", path, kind, err)
			return 1
		}
		fmt.Printf("%s: %s, ok\n", path, summary)
		return 0
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "perfdiff: need OLD.json NEW.json (or a -validate-* FILE)")
		flag.Usage()
		os.Exit(2)
	}
	oldF, err := perfdiff.Load(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	newF, err := perfdiff.Load(flag.Arg(1))
	if err != nil {
		fail("%v", err)
	}

	tol := perfdiff.Tolerances{Ns: *nsTol, Bytes: *bytesTol, Allocs: *allocsTol,
		Extra: *extraTol, WarnOnly: map[string]bool{}}
	for _, m := range strings.Split(*warn, ",") {
		if m = strings.TrimSpace(m); m != "" {
			tol.WarnOnly[m] = true
		}
	}

	rep := perfdiff.Diff(oldF, newF, tol)
	rep.Render(os.Stdout)
	if rep.Failed() {
		fmt.Fprintln(os.Stderr, "perfdiff: performance regression detected")
		return 1
	}
	return 0
}

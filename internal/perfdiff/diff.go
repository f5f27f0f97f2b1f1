package perfdiff

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Standard metric names. Domain metrics keep the names the benchmarks
// report them under (always "<something>/op").
const (
	MetricNs     = "ns/op"
	MetricBytes  = "B/op"
	MetricAllocs = "allocs/op"
)

// Tolerances configures the gate: the allowed fractional growth per metric
// class (0.10 = +10% passes, more fails) and the set of metrics demoted to
// warn-only. Timing is inherently noisy in CI, so ns/op typically rides in
// WarnOnly while allocs/op — deterministic for a deterministic workload —
// gates hard at a small tolerance.
type Tolerances struct {
	// Ns, Bytes, Allocs and Extra are the fractional growth allowances for
	// ns/op, B/op, allocs/op and the domain metrics respectively.
	Ns     float64
	Bytes  float64
	Allocs float64
	Extra  float64
	// WarnOnly metrics report regressions as warnings without failing the
	// gate.
	WarnOnly map[string]bool
}

// cheapPathCounters are the domain metrics that count cheap paths taken —
// fixed points started from a cached response, placements the admission
// prefilter settled without RTA — rather than work done. A rise in one is
// no regression (the work it saves shows in rta-iters/op), so they are
// reported but never gated.
var cheapPathCounters = map[string]bool{
	"warm-starts/op":    true,
	"prefilter-hits/op": true,
}

// tolerance returns the growth allowance for a metric name: +Inf for the
// ungated cheap-path counters.
func (t Tolerances) tolerance(metric string) float64 {
	switch {
	case metric == MetricNs:
		return t.Ns
	case metric == MetricBytes:
		return t.Bytes
	case metric == MetricAllocs:
		return t.Allocs
	case cheapPathCounters[metric]:
		return math.Inf(1)
	default:
		return t.Extra
	}
}

// Row statuses, in increasing severity.
const (
	StatusOK      = "ok"
	StatusMissing = "missing"
	StatusWarn    = "warn"
	StatusFail    = "FAIL"
)

// Row is one compared metric of one benchmark.
type Row struct {
	Bench  string
	Metric string
	Old    float64
	New    float64
	// DeltaPct is the percentage change from Old to New; +Inf when a
	// metric appears from zero.
	DeltaPct float64
	// Tolerance is the fractional allowance the row was judged under;
	// +Inf for a cheap-path counter, which is reported but not gated.
	Tolerance float64
	Status    string
}

// Report is the outcome of diffing two bench records.
type Report struct {
	OldMeta, NewMeta *Meta
	Rows             []Row
	Regressions      int
	Warnings         int
}

// Failed reports whether the gate should reject (any hard regression).
func (r Report) Failed() bool { return r.Regressions > 0 }

// Diff compares every metric of every benchmark present in both records,
// in the new record's order. Benchmarks present in only one record produce
// a warning row (renames and benchmark additions should not silently
// disable the gate). A metric regresses when new > old·(1+tolerance); a
// regression on a warn-only metric counts as a warning, anything else as a
// hard regression. The cheap-path counters never regress.
func Diff(oldF, newF File, tol Tolerances) Report {
	rep := Report{OldMeta: oldF.Meta, NewMeta: newF.Meta}
	oldBy := make(map[string]Record, len(oldF.Benchmarks))
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	seen := make(map[string]bool, len(newF.Benchmarks))
	for _, nb := range newF.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			rep.Rows = append(rep.Rows, Row{Bench: nb.Name, Metric: "-", Status: StatusMissing})
			rep.Warnings++
			continue
		}
		for _, m := range metricsOf(ob, nb) {
			row := compare(nb.Name, m.name, m.old, m.new, tol)
			switch row.Status {
			case StatusFail:
				rep.Regressions++
			case StatusWarn:
				rep.Warnings++
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	for _, ob := range oldF.Benchmarks {
		if !seen[ob.Name] {
			rep.Rows = append(rep.Rows, Row{Bench: ob.Name, Metric: "-", Status: StatusMissing})
			rep.Warnings++
		}
	}
	return rep
}

type metricPair struct {
	name     string
	old, new float64
}

// metricsOf lists the comparable metrics of a benchmark pair: the three
// standard metrics, then the union of the domain metrics sorted by name
// (a metric missing on one side compares against 0, which flags silent
// metric removal as a large negative delta and silent appearance as
// growth from zero).
func metricsOf(ob, nb Record) []metricPair {
	pairs := []metricPair{
		{MetricNs, ob.NsPerOp, nb.NsPerOp},
		{MetricBytes, float64(ob.BytesPerOp), float64(nb.BytesPerOp)},
		{MetricAllocs, float64(ob.AllocsPerOp), float64(nb.AllocsPerOp)},
	}
	names := make(map[string]bool, len(ob.Extra)+len(nb.Extra))
	for k := range ob.Extra {
		names[k] = true
	}
	for k := range nb.Extra {
		names[k] = true
	}
	extras := make([]string, 0, len(names))
	for k := range names {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		pairs = append(pairs, metricPair{k, ob.Extra[k], nb.Extra[k]})
	}
	return pairs
}

func compare(bench, metric string, oldV, newV float64, tol Tolerances) Row {
	row := Row{Bench: bench, Metric: metric, Old: oldV, New: newV,
		Tolerance: tol.tolerance(metric), Status: StatusOK}
	switch {
	case oldV == 0 && newV == 0:
		row.DeltaPct = 0
	case oldV == 0:
		row.DeltaPct = math.Inf(1)
	default:
		row.DeltaPct = (newV - oldV) / oldV * 100
	}
	if !math.IsInf(row.Tolerance, 1) && newV > oldV*(1+row.Tolerance) && newV-oldV > 1e-9 {
		if tol.WarnOnly[metric] {
			row.Status = StatusWarn
		} else {
			row.Status = StatusFail
		}
	}
	return row
}

// Render writes the report as an aligned table plus a one-line summary.
func (r Report) Render(w io.Writer) {
	if s := r.OldMeta.String() + " → " + r.NewMeta.String(); s != " → " {
		fmt.Fprintf(w, "capture: %s\n", s)
	}
	rows := make([][]string, 0, len(r.Rows)+1)
	rows = append(rows, []string{"benchmark", "metric", "old", "new", "delta", "tol", "status"})
	for _, row := range r.Rows {
		if row.Status == StatusMissing {
			rows = append(rows, []string{row.Bench, "-", "-", "-", "-", "-", "missing on one side"})
			continue
		}
		tol := "ungated"
		if !math.IsInf(row.Tolerance, 1) {
			tol = fmt.Sprintf("+%.0f%%", row.Tolerance*100)
		}
		rows = append(rows, []string{
			row.Bench, row.Metric,
			formatValue(row.Old), formatValue(row.New),
			formatDelta(row.DeltaPct), tol, row.Status,
		})
	}
	widths := make([]int, len(rows[0]))
	for _, cells := range rows {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, cells := range rows {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	fmt.Fprintf(w, "%d metrics compared, %d regressions, %d warnings\n",
		len(r.Rows), r.Regressions, r.Warnings)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

func formatDelta(pct float64) string {
	if math.IsInf(pct, 1) {
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

package perfdiff

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baseFile() File {
	return File{
		Meta: &Meta{Schema: 1, GoVersion: "go1.24.0", GOMAXPROCS: 8, GitRev: "abc1234"},
		Benchmarks: []Record{
			{Name: "PartitionRMTSArena", Iterations: 80000, NsPerOp: 15866.2, BytesPerOp: 230, AllocsPerOp: 3,
				Extra: map[string]float64{"rta-iters/op": 100, "splits/op": 10}},
			{Name: "RTAProcessor", Iterations: 2e6, NsPerOp: 509.0, BytesPerOp: 403, AllocsPerOp: 4},
			// The benchmarks nsCeilings judges, each under its ceiling.
			{Name: "E2AcceptanceGeneral", Iterations: 3000, NsPerOp: 320415.6, BytesPerOp: 1100, AllocsPerOp: 0},
			{Name: "AdmitService", Iterations: 5e5, NsPerOp: 2281.3, BytesPerOp: 120, AllocsPerOp: 1},
			{Name: "AdmitServiceJournaled", Iterations: 2e5, NsPerOp: 6188.1, BytesPerOp: 300, AllocsPerOp: 2},
		},
	}
}

// TestSelfDiffClean pins the acceptance criterion: diffing a record against
// itself reports zero regressions and warnings.
func TestSelfDiffClean(t *testing.T) {
	f := baseFile()
	rep := Diff(f, f, Tolerances{})
	if rep.Failed() || rep.Warnings != 0 {
		t.Fatalf("self-diff not clean: %+v", rep)
	}
	for _, row := range rep.Rows {
		if row.Status != StatusOK || row.DeltaPct != 0 {
			t.Errorf("row not clean: %+v", row)
		}
	}
}

// TestDetectsAllocRegression pins the other acceptance criterion: a
// synthetic 2× allocs/op regression fails the gate even under a generous
// tolerance, and the offending row is marked FAIL.
func TestDetectsAllocRegression(t *testing.T) {
	oldF, newF := baseFile(), baseFile()
	newF.Benchmarks[0].AllocsPerOp *= 2
	rep := Diff(oldF, newF, Tolerances{Ns: 0.5, Bytes: 0.5, Allocs: 0.25, Extra: 0.5})
	if !rep.Failed() {
		t.Fatal("2x allocs/op regression not detected")
	}
	var failed *Row
	for i := range rep.Rows {
		if rep.Rows[i].Status == StatusFail {
			if failed != nil {
				t.Fatalf("more than one FAIL row: %+v", rep.Rows)
			}
			failed = &rep.Rows[i]
		}
	}
	if failed == nil || failed.Bench != "PartitionRMTSArena" || failed.Metric != MetricAllocs ||
		failed.DeltaPct != 100 {
		t.Fatalf("wrong FAIL row: %+v", failed)
	}
}

// TestToleranceBoundary checks growth exactly at the allowance passes and
// just beyond fails.
func TestToleranceBoundary(t *testing.T) {
	oldF, newF := baseFile(), baseFile()
	newF.Benchmarks[1].NsPerOp = 509.0 * 1.10 // exactly +10%
	rep := Diff(oldF, newF, Tolerances{Ns: 0.10})
	if rep.Failed() {
		t.Fatalf("growth at tolerance failed the gate: %+v", rep.Rows)
	}
	newF.Benchmarks[1].NsPerOp = 509.0 * 1.11
	if rep = Diff(oldF, newF, Tolerances{Ns: 0.10}); !rep.Failed() {
		t.Fatal("growth beyond tolerance passed the gate")
	}
}

// TestWarnOnlyDemotesRegression checks that a warn-listed metric reports
// but does not fail, the documented CI treatment of noisy timing.
func TestWarnOnlyDemotesRegression(t *testing.T) {
	oldF, newF := baseFile(), baseFile()
	newF.Benchmarks[1].NsPerOp *= 3
	rep := Diff(oldF, newF, Tolerances{Ns: 0.5, WarnOnly: map[string]bool{MetricNs: true}})
	if rep.Failed() {
		t.Fatalf("warn-only metric failed the gate: %+v", rep.Rows)
	}
	if rep.Warnings != 1 {
		t.Fatalf("want 1 warning, got %d", rep.Warnings)
	}
}

// TestDomainMetricGate checks the extras: a regression in a domain metric
// (rta-iters/op) fails under the extra tolerance, and a metric appearing
// from zero is flagged as +inf growth.
func TestDomainMetricGate(t *testing.T) {
	oldF, newF := baseFile(), baseFile()
	newF.Benchmarks[0].Extra["rta-iters/op"] = 200
	if rep := Diff(oldF, newF, Tolerances{Extra: 0.5}); !rep.Failed() {
		t.Fatal("domain metric regression passed")
	}

	oldF, newF = baseFile(), baseFile()
	newF.Benchmarks[0].Extra["bin-probes/op"] = 5
	rep := Diff(oldF, newF, Tolerances{Extra: 0.5})
	if !rep.Failed() {
		t.Fatal("metric appearing from zero passed")
	}
	for _, row := range rep.Rows {
		if row.Metric == "bin-probes/op" && !math.IsInf(row.DeltaPct, 1) {
			t.Errorf("appearing metric delta: %+v", row)
		}
	}
}

// TestCheapPathCountersUngated: warm-starts/op and prefilter-hits/op count
// cheap paths taken, not work, so a rise in either (or an appearance from
// zero) is reported without failing, while a cost extra still gates.
func TestCheapPathCountersUngated(t *testing.T) {
	for _, tc := range []struct {
		name   string
		metric string
		old    float64 // 0: the metric is absent from the old record
		new    float64
		fail   bool
	}{
		{"warm starts rise", "warm-starts/op", 1.26, 1.64, false},
		{"prefilter hits rise", "prefilter-hits/op", 10, 40, false},
		{"warm starts appear", "warm-starts/op", 0, 3, false},
		{"rta iterations rise", "rta-iters/op", 100, 130, true},
		{"splits rise", "splits/op", 10, 13, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oldF, newF := baseFile(), baseFile()
			if tc.old != 0 {
				oldF.Benchmarks[0].Extra[tc.metric] = tc.old
			}
			newF.Benchmarks[0].Extra[tc.metric] = tc.new
			rep := Diff(oldF, newF, Tolerances{Extra: 0.25})
			if rep.Failed() != tc.fail {
				t.Fatalf("%s %v → %v: failed=%v, want %v: %+v", tc.metric, tc.old, tc.new, rep.Failed(), tc.fail, rep.Rows)
			}
			if !tc.fail {
				var buf bytes.Buffer
				rep.Render(&buf)
				if !strings.Contains(buf.String(), tc.metric) || !strings.Contains(buf.String(), "ungated") {
					t.Errorf("ungated row not reported:\n%s", buf.String())
				}
			}
		})
	}
}

// TestNsCeilings pins the absolute ns/op ceilings every diff checks on the
// new record: at the ceiling passes, one ns over it fails, and so does a
// ceiling benchmark absent from the record or reporting no time — even
// with ns/op demoted to warn-only and a baseline just as slow.
func TestNsCeilings(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(f *File)
		fails []string
	}{
		{"under", func(f *File) {}, nil},
		{"at the ceiling", func(f *File) { setNs(f, "AdmitService", 7000) }, nil},
		{"over", func(f *File) { setNs(f, "E2AcceptanceGeneral", 700001) }, []string{"E2AcceptanceGeneral"}},
		{"zero time", func(f *File) { setNs(f, "AdmitServiceJournaled", 0) }, []string{"AdmitServiceJournaled"}},
		{"absent", func(f *File) { f.Benchmarks = f.Benchmarks[:len(f.Benchmarks)-1] }, []string{"AdmitServiceJournaled"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := baseFile()
			tc.edit(&f)
			rep := Diff(f, f, Tolerances{WarnOnly: map[string]bool{MetricNs: true}})
			var failed []string
			for _, row := range rep.Ceilings {
				if row.Metric != MetricCeiling || row.Old != nsCeilings[row.Bench] {
					t.Errorf("malformed ceiling row %+v", row)
				}
				if row.Status == StatusFail {
					failed = append(failed, row.Bench)
				}
			}
			if len(rep.Ceilings) != len(nsCeilings) || strings.Join(failed, ",") != strings.Join(tc.fails, ",") ||
				rep.Failed() != (len(tc.fails) > 0) {
				t.Fatalf("ceilings failed %v (report failed %v), want %v: %+v", failed, rep.Failed(), tc.fails, rep.Ceilings)
			}
		})
	}
}

func setNs(f *File, name string, ns float64) {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			f.Benchmarks[i].NsPerOp = ns
		}
	}
}

// TestMissingBenchmarksWarn checks both directions of benchmark set drift.
func TestMissingBenchmarksWarn(t *testing.T) {
	oldF, newF := baseFile(), baseFile()
	newF.Benchmarks = append(newF.Benchmarks[:1:1], newF.Benchmarks[2:]...) // drop RTAProcessor
	rep := Diff(oldF, newF, Tolerances{})
	if rep.Failed() || rep.Warnings != 1 {
		t.Fatalf("dropped benchmark: regressions=%d warnings=%d", rep.Regressions, rep.Warnings)
	}
	rep = Diff(newF, oldF, Tolerances{})
	if rep.Failed() || rep.Warnings != 1 {
		t.Fatalf("added benchmark: regressions=%d warnings=%d", rep.Regressions, rep.Warnings)
	}
}

// TestImprovementsPass: shrinking metrics never trip the gate.
func TestImprovementsPass(t *testing.T) {
	oldF, newF := baseFile(), baseFile()
	newF.Benchmarks[0].NsPerOp /= 2
	newF.Benchmarks[0].AllocsPerOp = 0
	newF.Benchmarks[0].Extra["splits/op"] = 1
	if rep := Diff(oldF, newF, Tolerances{}); rep.Failed() || rep.Warnings != 0 {
		t.Fatalf("improvement flagged: %+v", rep)
	}
}

// TestRenderAligned smoke-checks the table: header present, metadata
// attribution, aligned columns, summary line.
func TestRenderAligned(t *testing.T) {
	oldF, newF := baseFile(), baseFile()
	newF.Benchmarks[0].AllocsPerOp = 6
	rep := Diff(oldF, newF, Tolerances{Allocs: 0.1})
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"benchmark", "allocs/op", "FAIL", "+100.0%",
		"go1.24.0/8cpu @abc1234", "1 regressions"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	status := strings.Index(lines[1], "status")
	if status < 0 {
		t.Fatalf("no header: %s", lines[1])
	}
}

// TestParseCommittedShape checks the parser against both record shapes: the
// pre-metadata committed baseline (benchmarks only) and the new form with
// meta.
func TestParseCommittedShape(t *testing.T) {
	legacy := []byte(`{"benchmarks":[{"name":"X","iterations":10,"ns_per_op":1.5,"bytes_per_op":2,"allocs_per_op":3,"extra":{"splits/op":4}}]}`)
	f, err := Parse(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta != nil || f.Benchmarks[0].Extra["splits/op"] != 4 {
		t.Fatalf("legacy parse: %+v", f)
	}
	if f.Meta.String() != "" {
		t.Fatalf("nil meta renders %q", f.Meta.String())
	}

	withMeta := []byte(`{"meta":{"schema":1,"go_version":"go1.24.0","gomaxprocs":4,"git_rev":"deadbee"},"benchmarks":[{"name":"X","iterations":1,"ns_per_op":1,"bytes_per_op":1,"allocs_per_op":1}]}`)
	f, err = Parse(withMeta)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta == nil || f.Meta.GitRev != "deadbee" {
		t.Fatalf("meta parse: %+v", f.Meta)
	}

	for name, bad := range map[string]string{
		"empty":     `{}`,
		"no name":   `{"benchmarks":[{"iterations":1}]}`,
		"not json":  `hello`,
		"wrong top": `[1,2,3]`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s: parse accepted invalid record", name)
		}
	}
}

// TestLoad round-trips through the filesystem and reports unreadable paths.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks":[{"name":"X"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

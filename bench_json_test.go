package repro

// Machine-readable benchmark emission for the hot-path acceptance numbers
// (ISSUE 3): `go test -run BenchHotpathJSON -benchjson=BENCH_hotpath.json .`
// runs the hot-path benchmarks through testing.Benchmark and writes ns/op,
// B/op, allocs/op plus every ReportMetric extra (rta-iters/op,
// warm-starts/op, splits/op, ...) as JSON, so CI and EXPERIMENTS.md record
// comparable numbers instead of scraping bench output.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

var benchJSONPath = flag.String("benchjson", "", "write hot-path benchmark results as JSON to this path")

// benchMeta mirrors perfdiff.Meta so records are attributable: two captures
// that disagree should say which toolchain, CPU budget and revision each
// came from.
type benchMeta struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev"`
}

type benchRecord struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func TestBenchHotpathJSON(t *testing.T) {
	if *benchJSONPath == "" {
		t.Skip("pass -benchjson=<path> to emit machine-readable hot-path benchmarks")
	}
	hot := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"E2AcceptanceGeneral", BenchmarkE2AcceptanceGeneral},
		{"E3AcceptanceLight", BenchmarkE3AcceptanceLight},
		{"E5AcceptanceKChains", BenchmarkE5AcceptanceKChains},
		{"E6Breakdown", BenchmarkE6Breakdown},
		{"E10SimulateVerify", BenchmarkE10SimulateVerify},
		{"E12GlobalCompare", BenchmarkE12GlobalCompare},
		{"E13OverheadSensitivity", BenchmarkE13OverheadSensitivity},
		{"E14AdmissionAblation", BenchmarkE14AdmissionAblation},
		{"E15FPvsEDF", BenchmarkE15FPvsEDF},
		{"E16ConstrainedDeadlines", BenchmarkE16ConstrainedDeadlines},
		{"RTAProcessor", BenchmarkRTAProcessor},
		{"BatchRTAKernel", BenchmarkBatchRTAKernel},
		{"MaxSplitTestingPoint", BenchmarkMaxSplitTestingPoint},
		{"PartitionRMTS", BenchmarkPartitionRMTS},
		{"PartitionRMTSArena", BenchmarkPartitionRMTSArena},
		{"E2SetVerdict", BenchmarkE2SetVerdict},
		{"SimulateHyperperiod", BenchmarkSimulateHyperperiod},
		{"AdmitService", BenchmarkAdmitService},
		{"AdmitServiceJournaled", BenchmarkAdmitServiceJournaled},
		{"AdmitServiceReject", BenchmarkAdmitServiceReject},
		{"AdmitServiceRejectEvidence", BenchmarkAdmitServiceRejectEvidence},
	}
	records := make([]benchRecord, 0, len(hot))
	for _, h := range hot {
		res := testing.Benchmark(h.fn)
		rec := benchRecord{
			Name:        h.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if len(res.Extra) > 0 {
			rec.Extra = res.Extra
		}
		records = append(records, rec)
		t.Logf("%s: %.0f ns/op, %d B/op, %d allocs/op", h.name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp)
	}
	meta := benchMeta{Schema: 1, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GitRev: "unknown"}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		meta.GitRev = strings.TrimSpace(string(rev))
		// Numbers measured on uncommitted changes are not HEAD's numbers.
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			meta.GitRev += "-dirty"
		}
	}
	doc := struct {
		Meta       benchMeta     `json:"meta"`
		Benchmarks []benchRecord `json:"benchmarks"`
	}{meta, records}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchJSONPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *benchJSONPath)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/admit"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeReportsTailWithCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1, unsorted input
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailP != 99 || s.Tail != 990 {
		t.Fatalf("summarize = n %d p50 %g tail p%g %g, want n 1000 p50 500 tail p99 990", s.N, s.P50, s.TailP, s.Tail)
	}
	// Exactly ten samples lie beyond p99: 991..1000.
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}
	if small := summarize(xs[:15]); small.TailP != 0 || !math.IsNaN(small.Tail) {
		t.Fatalf("15 samples reported a tail at p%g", small.TailP)
	}
}

func TestSummarizeWindowsTakesMediansAtOnePercentile(t *testing.T) {
	ramp := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i+1) * scale
		}
		return xs
	}
	// The 500-sample window caps the tail at p90 for every window; the
	// disturbed window (scale 100) cannot move either median.
	s := summarizeWindows([][]float64{ramp(1000, 1), ramp(500, 2), ramp(1000, 100)})
	if s.N != 2500 || s.TailP != 90 {
		t.Fatalf("n %d tail p%g, want n 2500 tail p90", s.N, s.TailP)
	}
	if s.P50 != 500 || s.Tail != 900 {
		t.Fatalf("p50 %g tail %g, want the middle window's 500 and 900", s.P50, s.Tail)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	nan := math.NaN()
	parent := []float64{10, 20, nan, 40, 50}
	child := []float64{4, 5, 6, nan, 20}
	class := []string{"accept", "reject", "accept", "accept", "accept"}
	got := selfTimes(parent, child, class, "")
	want := []float64{6, 15, 30}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	if acc := selfTimes(parent, child, class, "accept"); len(acc) != 2 || acc[0] != 6 || acc[1] != 30 {
		t.Fatalf("accept self times = %v, want [6 30]", acc)
	}
}

func TestRecorderLayerLinesUpOps(t *testing.T) {
	rec := newRecorder(4)
	t0 := rec.epoch
	rec.record("engine", 1, "reject", t0, t0.Add(3000))
	rec.record("cluster", 1, "reject", t0, t0.Add(5000))
	d, class := rec.layer("engine", 3)
	if !math.IsNaN(d[0]) || d[1] != 3 || class[1] != "reject" {
		t.Fatalf("engine layer = %v %v", d, class)
	}
}

func TestStoppedTenantFailsRun(t *testing.T) {
	logs := newTenantLogs(durableTenants, 1)
	var out bytes.Buffer
	rep := newReport(&out)
	failStopped(logs, rep)
	if !rep.correct {
		t.Fatal("a run with no stopped tenant failed")
	}
	logs[1].stopped = errors.New("status 429")
	failStopped(logs, rep)
	if rep.correct {
		t.Fatal("a tenant that stopped early left the run correct")
	}
}

// streamBytes drives one tenant's generator against an in-process cluster
// and returns every request body it sent, in order.
func streamBytes(t *testing.T, spec tenantSpec, seed int64, n int) []byte {
	t.Helper()
	svc := admit.NewService(0)
	c, err := svc.Create(context.Background(), spec.Name, spec.M, spec.Policy, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := newStreamGen(spec, seed, 0)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := g.next()
		v, err := admitOp(context.Background(), c, o)
		if err != nil {
			t.Fatal(err)
		}
		g.observe(o, v)
		buf.Write(o.body())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestStreamDeterminism(t *testing.T) {
	spec := durableTenants[0]
	a := streamBytes(t, spec, 7, 3000)
	b := streamBytes(t, spec, 7, 3000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different stream bytes")
	}
	if bytes.Equal(a, streamBytes(t, spec, 8, 3000)) {
		t.Fatal("different seeds produced identical streams")
	}
	for _, want := range []string{`"d":`, `{"handle":`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("stream never sent %s", want)
		}
	}
}

func TestStreamMixesVerdicts(t *testing.T) {
	st, err := buildStream(durableTenants[:1], 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	retries := 0
	for i, o := range st.ops {
		counts[o.class(st.verdicts[i])]++
		if o.Retry {
			retries++
		}
	}
	for _, c := range []string{"accept", "reject", "remove"} {
		if counts[c] < len(st.ops)/10 {
			t.Errorf("%s is %d of %d ops, want at least a tenth", c, counts[c], len(st.ops))
		}
	}
	if retries == 0 {
		t.Error("no identical retry was sent")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric sets
// this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}

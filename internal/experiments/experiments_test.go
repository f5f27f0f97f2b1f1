package experiments

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config {
	return Config{Seed: 1, SetsPerPoint: 10, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	keys := map[string]bool{}
	for _, e := range Registry() {
		if e.Key == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete registry entry: %+v", e)
		}
		if keys[e.Key] {
			t.Errorf("duplicate key %q", e.Key)
		}
		keys[e.Key] = true
	}
	// The DESIGN.md experiment index names these keys.
	for _, want := range []string{
		"bounds-table", "acceptance-general", "acceptance-light",
		"acceptance-harmonic", "acceptance-kchains", "breakdown",
		"procs-sweep", "heavy-sweep", "split-ablation", "simulate-verify",
		"utilization-tail",
	} {
		if !keys[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("bounds-table"); !ok {
		t.Error("bounds-table not found")
	}
	if _, ok := Find("nope"); ok {
		t.Error("bogus key found")
	}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.Key, func(t *testing.T) {
			tables, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %s empty", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("table %s: row width %d ≠ header width %d", tb.ID, len(row), len(tb.Header))
					}
				}
				var buf bytes.Buffer
				tb.Render(&buf)
				if !strings.Contains(buf.String(), tb.ID) {
					t.Errorf("render of %s lacks its ID", tb.ID)
				}
				buf.Reset()
				tb.CSV(&buf)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				if len(lines) != len(tb.Rows)+1 {
					t.Errorf("CSV of %s has %d lines, want %d", tb.ID, len(lines), len(tb.Rows)+1)
				}
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	for _, key := range []string{"acceptance-general", "breakdown"} {
		e, ok := Find(key)
		if !ok {
			t.Fatalf("%s missing", key)
		}
		a := render(mustRun(t, e, quickCfg()))
		b := render(mustRun(t, e, quickCfg()))
		if a != b {
			t.Errorf("%s not deterministic across runs with the same seed", key)
		}
	}
}

func TestParallelDeterminism(t *testing.T) {
	// The same seed must produce identical tables at any worker count —
	// acceptance-kchains' "for this set size" note included.
	for _, key := range []string{"acceptance-general", "fp-vs-edf", "acceptance-kchains"} {
		e, _ := Find(key)
		seq := render(mustRun(t, e, Config{Seed: 7, SetsPerPoint: 20, Quick: true, Workers: 1}))
		par := render(mustRun(t, e, Config{Seed: 7, SetsPerPoint: 20, Quick: true, Workers: 8}))
		if seq != par {
			t.Errorf("%s: workers=1 and workers=8 disagree", key)
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	e, ok := Find("bounds-table")
	if !ok {
		t.Fatal("bounds-table missing")
	}
	if _, err := Run(e, Config{Seed: 1, SetsPerPoint: 10, Workers: -1}); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("Run with Workers=-1: want Workers error, got %v", err)
	}
	if _, err := Run(e, Config{Seed: 1}); err == nil || !strings.Contains(err.Error(), "SetsPerPoint") {
		t.Errorf("Run with SetsPerPoint=0: want SetsPerPoint error, got %v", err)
	}
	if _, _, err := RunWithMetrics(e, Config{Seed: 1, SetsPerPoint: -5}); err == nil || !strings.Contains(err.Error(), "SetsPerPoint") {
		t.Errorf("RunWithMetrics with SetsPerPoint=-5: want SetsPerPoint error, got %v", err)
	}
	if _, err := Run(e, Config{Seed: 1, SetsPerPoint: 10, Quick: true}); err != nil {
		t.Errorf("Run with valid config: %v", err)
	}
}

func TestParEachCoversAllIndices(t *testing.T) {
	cfg := Config{Workers: 4}
	n := 100
	seen := make([]int32, n)
	if err := cfg.parEach(42, n, func(i int, r *rand.Rand, _ *Workspace) {
		seen[i]++
		_ = r.Int63()
	}); err != nil {
		t.Fatalf("parEach: %v", err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestParEachSeedsAreStable(t *testing.T) {
	cfg := Config{Workers: 3}
	n := 16
	a := make([]int64, n)
	b := make([]int64, n)
	if err := cfg.parEach(9, n, func(i int, r *rand.Rand, _ *Workspace) { a[i] = r.Int63() }); err != nil {
		t.Fatalf("parEach: %v", err)
	}
	cfg.Workers = 1
	if err := cfg.parEach(9, n, func(i int, r *rand.Rand, _ *Workspace) { b[i] = r.Int63() }); err != nil {
		t.Fatalf("parEach: %v", err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d: draws differ across worker counts", i)
		}
	}
}

func mustRun(t *testing.T, e Experiment, cfg Config) []Table {
	t.Helper()
	tables, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", e.Key, err)
	}
	return tables
}

func render(tables []Table) string {
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Render(&buf)
	}
	return buf.String()
}

func TestSimulateVerifyReportsZeroMisses(t *testing.T) {
	tables, err := SimulateVerify(Config{Seed: 5, SetsPerPoint: 15, Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tb := tables[0]
	missCol := -1
	for i, h := range tb.Header {
		if h == "deadline misses" {
			missCol = i
		}
	}
	if missCol < 0 {
		t.Fatal("no miss column")
	}
	simulatedAny := false
	for _, row := range tb.Rows {
		if row[missCol] != "0" {
			t.Errorf("%s reported %s misses", row[0], row[missCol])
		}
		if n, _ := strconv.Atoi(row[1]); n > 0 {
			simulatedAny = true
		}
	}
	if !simulatedAny {
		t.Error("no partitions were simulated; experiment vacuous")
	}
}

func TestAcceptanceShapeRMTSDominatesSPA2(t *testing.T) {
	// Core claim of the paper in miniature: over the sweep, RM-TS's summed
	// acceptance strictly exceeds SPA2's.
	tables, err := AcceptanceGeneral(Config{Seed: 2, SetsPerPoint: 25, Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tb := tables[0]
	col := func(name string) int {
		for i, h := range tb.Header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %s missing", name)
		return -1
	}
	rmts, spa2 := col("RM-TS"), col("SPA2")
	var sumA, sumB float64
	for _, row := range tb.Rows {
		a, _ := strconv.ParseFloat(row[rmts], 64)
		b, _ := strconv.ParseFloat(row[spa2], 64)
		sumA += a
		sumB += b
		if a+1e-9 < b {
			t.Errorf("U_M=%s: RM-TS %.3f below SPA2 %.3f", row[0], a, b)
		}
	}
	if sumA <= sumB {
		t.Errorf("RM-TS total %.3f not above SPA2 total %.3f", sumA, sumB)
	}
}

func TestHarmonicShapeNearFullUtilization(t *testing.T) {
	// RM-TS/light must accept harmonic light sets essentially everywhere
	// below U_M = 0.95.
	tables, err := AcceptanceHarmonic(Config{Seed: 3, SetsPerPoint: 20, Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tb := tables[0]
	col := -1
	for i, h := range tb.Header {
		if h == "RM-TS/light" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("RM-TS/light column missing")
	}
	for _, row := range tb.Rows {
		um, _ := strconv.ParseFloat(row[0], 64)
		v, _ := strconv.ParseFloat(row[col], 64)
		if um <= 0.95 && v < 0.95 {
			t.Errorf("harmonic acceptance at U_M=%.3f is %.3f; expected ≈ 1", um, v)
		}
	}
}

func TestSplitAblationAgrees(t *testing.T) {
	tables, err := SplitAblation(Config{Seed: 4, SetsPerPoint: 10, Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tb := tables[0]
	agreeCell := tb.Rows[0][len(tb.Rows[0])-1]
	parts := strings.Split(agreeCell, "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("MaxSplit implementations disagree: %s", agreeCell)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.setsPerPoint() != 200 {
		t.Errorf("default sets per point = %d", c.setsPerPoint())
	}
	var buf bytes.Buffer
	c.Progress = &buf
	c.progressf("hello %d", 7)
	if !strings.Contains(buf.String(), "hello 7") {
		t.Error("progressf did not write")
	}
}

func TestAnalysisPessimismSound(t *testing.T) {
	tables, err := AnalysisPessimism(Config{Seed: 6, SetsPerPoint: 20, Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tb := tables[0]
	maxCol := -1
	for i, h := range tb.Header {
		if h == "max" {
			maxCol = i
		}
	}
	if maxCol < 0 {
		t.Fatal("no max column")
	}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[maxCol], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[maxCol])
		}
		if v > 1.0+1e-9 {
			t.Errorf("class %s: observed/bound ratio %g exceeds 1 — analysis unsound", row[0], v)
		}
	}
}

func TestAdmissionAblationStaircase(t *testing.T) {
	tables, err := AdmissionAblation(Config{Seed: 7, SetsPerPoint: 25, Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tb := tables[0]
	for _, row := range tb.Rows {
		var prev float64 = -1
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v+0.051 < prev { // small sampling tolerance
				t.Errorf("U_M=%s: staircase violated: %v", row[0], row)
				break
			}
			prev = v
		}
	}
}

func TestUniBreakdownMatchesCited88Percent(t *testing.T) {
	// The one digit the paper quotes with a citation: ≈88% average
	// breakdown utilization of uniprocessor RMS. Our reproduction must
	// bracket it at the classic experiment's scale (small n).
	tables, err := UniprocessorBreakdown(Config{Seed: 9, SetsPerPoint: 60, Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tb := tables[0]
	for _, row := range tb.Rows {
		n, _ := strconv.Atoi(row[0])
		mean, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		if n == 10 && (mean < 0.83 || mean > 0.91) {
			t.Errorf("n=10 mean breakdown %.4f far from the cited ≈0.88", mean)
		}
		if mean < 0.69 {
			t.Errorf("n=%d mean breakdown %.4f below the L&L bound — impossible for exact RTA", n, mean)
		}
	}
}

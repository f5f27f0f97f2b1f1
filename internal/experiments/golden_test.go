package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment tables")

// renderAllQuick renders every registered experiment's tables at the quick
// benchmark scale — the same tables `cmd/experiments -all -quick -sets 10
// -seed 1` prints.
func renderAllQuick(t *testing.T) []byte {
	t.Helper()
	cfg := quickCfg()
	var buf bytes.Buffer
	for _, e := range Registry() {
		if e.Key == "split-ablation" {
			// Its table embeds wall-clock timings and cannot be golden;
			// the deterministic half (testing-point vs binary-search
			// agreement) is covered by the split package property tests.
			continue
		}
		tables, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		for _, tb := range tables {
			tb.Render(&buf)
		}
	}
	return buf.Bytes()
}

// TestGoldenQuickTables is the regression net for the whole evaluation
// pipeline: the rendered quick-scale tables for a fixed seed must stay byte
// for byte what they were when the golden file was recorded. Run with
// `go test -run TestGoldenQuickTables -update ./internal/experiments` after
// an intentional output change and review the diff.
func TestGoldenQuickTables(t *testing.T) {
	got := renderAllQuick(t)
	path := filepath.Join("testdata", "quick_tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quick tables diverged from %s (rerun with -update if intended)\n--- got %d bytes, want %d bytes ---\n%s",
			path, len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff returns a short context window around the first differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) []byte {
		hi := i + 120
		if hi > len(b) {
			hi = len(b)
		}
		if lo > len(b) {
			return nil
		}
		return b[lo:hi]
	}
	return "got:  …" + string(clip(got)) + "…\nwant: …" + string(clip(want)) + "…"
}

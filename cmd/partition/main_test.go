package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRMTSHangReproducerIsInputError is the former RM-TS hang reproducer
// (periods up to 5.7·10^18, billions of testing points per max-own-load
// scan on m = 3). Its periods lie outside the model's domain, so the
// command now refuses the file as bad input: exit 2 with the domain
// message, well under a second.
func TestRMTSHangReproducerIsInputError(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "partition-under-test")
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	set := filepath.Join(dir, "hang.txt")
	if err := os.WriteFile(set, []byte(
		"a 1099511627776 1099511627776\n"+
			"b 898 1000 969\n"+
			"c 17179869191 17179869191\n"+
			"d 3005426055680103302 5721670360576635260\n"+
			"e 2305843009213693953 4611686018427387904\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-set", set, "-m", "3", "-algo", "rm-ts")
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	elapsed := time.Since(start)
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit %d (%v), want 2; stderr %q", code, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "outside the model's domain") {
		t.Errorf("stderr %q lacks the domain message", stderr.String())
	}
	if elapsed > time.Second {
		t.Errorf("refusal took %v, want well under 1 s", elapsed)
	}
}

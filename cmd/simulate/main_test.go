package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestPlanOutOfDomainFragment replays a plan whose fragment has a period
// past task.MaxTime: plan validation refuses it as bad input (exit 2, with
// the domain message) before anything is simulated.
func TestPlanOutOfDomainFragment(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "simulate-under-test")
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-plan", filepath.Join("testdata", "out_of_domain_plan.json"))
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit %d (%v), want 2; stderr %q", code, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "outside the model's domain") {
		t.Errorf("stderr %q lacks the domain message", stderr.String())
	}
}

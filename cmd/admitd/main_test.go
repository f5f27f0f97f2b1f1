package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildAdmitd compiles the command under test into dir and returns the
// binary path.
func buildAdmitd(t *testing.T, dir string) string {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := filepath.Join(dir, "admitd-under-test")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// exitCode runs the binary and returns its exit status (-1 on signal death).
func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	if err == nil {
		return 0, buf.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), buf.String()
	}
	t.Fatalf("run %v: %v", args, err)
	return -1, ""
}

// TestServeCheckAndShutdown is the full daemon lifecycle: boot on a free
// port, publish the address, pass the -check client (which exercises the
// admit → reject → remove → re-admit cycle, the rejection with and without
// its evidence, and a load smoke), then shut down gracefully on SIGTERM.
func TestServeCheckAndShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildAdmitd(t, dir)

	addrFile := filepath.Join(dir, "addr")
	accessLog := filepath.Join(dir, "access.jsonl")
	srv := exec.Command(bin, "-listen", "127.0.0.1:0", "-addr-file", addrFile, "-q",
		"-access-log", accessLog, "-slow-ms", "0")
	var srvOut bytes.Buffer
	srv.Stdout, srv.Stderr = &srvOut, &srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			addr = strings.TrimSpace(string(raw))
			break
		}
	}
	if addr == "" {
		t.Fatalf("no address published; server output:\n%s", srvOut.String())
	}

	code, out := exitCode(t, bin, "-check", addr, "-check-load", "300")
	if code != 0 {
		t.Fatalf("check failed (exit %d):\n%s\nserver output:\n%s", code, out, srvOut.String())
	}
	if !strings.Contains(out, "check ok:") || !strings.Contains(out, "accepted") {
		t.Errorf("check report malformed: %q", out)
	}

	// The scrape client mode fetches the Prometheus exposition; spot-check a
	// family from each subsystem (RED, gate, readiness).
	code, prom := exitCode(t, bin, "-scrape", addr)
	if code != 0 {
		t.Fatalf("scrape failed (exit %d):\n%s", code, prom)
	}
	for _, want := range []string{
		"# TYPE admit_http_admit_latency_us histogram",
		"# TYPE admit_gate_queue_depth gauge",
		"# TYPE process_ready_state gauge",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("scrape output lacks %q", want)
		}
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("server did not exit cleanly on SIGTERM: %v\n%s", err, srvOut.String())
	}

	// Shutdown flushed the access log; the check traffic must be in it.
	raw, err := os.ReadFile(accessLog)
	if err != nil || len(bytes.TrimSpace(raw)) == 0 {
		t.Fatalf("access log missing or empty after shutdown: %v", err)
	}
	if !bytes.Contains(raw, []byte(`"route":"admit"`)) {
		t.Errorf("access log lacks admit-route records:\n%s", raw)
	}
}

// TestExitCodes pins the usage/failure contract: 2 for usage errors, 1 for
// a failed check (nothing listening), 0 only for a passed check.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildAdmitd(t, dir)

	if code, _ := exitCode(t, bin, "-nope"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _ := exitCode(t, bin, "stray"); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
	if code, _ := exitCode(t, bin, "-check", "127.0.0.1:9", "-check-load", "0"); code != 2 {
		t.Errorf("bad -check-load: exit %d, want 2", code)
	}
	// Port 9 (discard) is almost certainly refusing connections; a failed
	// check is exit 1, distinct from usage errors.
	if code, _ := exitCode(t, bin, "-check", "127.0.0.1:9"); code != 1 {
		t.Errorf("unreachable check: exit %d, want 1", code)
	}
	// An unbindable listen address is an operational error at startup.
	if code, _ := exitCode(t, bin, "-listen", "256.256.256.256:1"); code != 2 {
		t.Errorf("unbindable listen: exit %d, want 2", code)
	}
}

// TestCheckPinsRejectionShapes puts a proxy that rewrites admit bodies
// between -check and a live daemon: a daemon that drops the evidence opt-in
// and one that answers every rejection with evidence must both fail the
// check (exit 1), each on its own rejection shape.
func TestCheckPinsRejectionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildAdmitd(t, dir)
	srv, addr, out := startAdmitd(t, bin, dir)
	defer srv.Process.Kill()
	target, err := url.Parse("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		rewrite    func(body string) string
	}{
		{"opt-in dropped", "without the evidence it asked for",
			func(b string) string { return strings.Replace(b, `,"evidence":true`, "", 1) }},
		{"evidence always sent", "without the opt-in",
			func(b string) string {
				if strings.Contains(b, `"evidence"`) {
					return b
				}
				return strings.TrimSuffix(b, "}") + `,"evidence":true}`
			}},
	} {
		proxy := httputil.NewSingleHostReverseProxy(target)
		direct := proxy.Director
		proxy.Director = func(r *http.Request) {
			direct(r)
			if !strings.HasSuffix(r.URL.Path, "/admit") || r.Body == nil {
				return
			}
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			body := tc.rewrite(string(raw))
			r.Body, r.ContentLength = io.NopCloser(strings.NewReader(body)), int64(len(body))
		}
		front := httptest.NewServer(proxy)
		code, cout := exitCode(t, bin, "-check", strings.TrimPrefix(front.URL, "http://"), "-check-load", "10")
		front.Close()
		if code != 1 || !strings.Contains(cout, tc.want) {
			t.Errorf("%s: check exit %d, want 1 with %q:\n%s\nserver:\n%s", tc.name, code, tc.want, cout, out.String())
		}
	}
}

// startAdmitd boots the daemon with the given extra flags and waits for it
// to publish its address. With -data the address file is written before
// recovery finishes, and the ready guard answers 503 until it does, so
// callers wait with canonDigest before driving the API.
func startAdmitd(t *testing.T, bin, dir string, extra ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	args := append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-q"}, extra...)
	srv := exec.Command(bin, args...)
	var out bytes.Buffer
	srv.Stdout, srv.Stderr = &out, &out
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			addr = strings.TrimSpace(string(raw))
			break
		}
	}
	if addr == "" {
		srv.Process.Kill()
		t.Fatalf("no address published; server output:\n%s", out.String())
	}
	return srv, addr, &out
}

// canonDigest runs the churn client in digest-only mode and returns the
// "canon <hex>" line. It retries briefly: right after a restart the ready
// guard answers 503 while journal replay runs.
func canonDigest(t *testing.T, bin, addr string) string {
	t.Helper()
	var lastOut string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		code, out := exitCode(t, bin, "-churn", addr, "-churn-ops", "0")
		lastOut = out
		if code == 0 {
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "canon ") {
					return strings.TrimSpace(line)
				}
			}
			t.Fatalf("digest run printed no canon line: %q", out)
		}
	}
	t.Fatalf("digest never succeeded: %q", lastOut)
	return ""
}

// TestCrashRecoveryTorture is the process-level crash test: churn a
// journaled daemon, SIGKILL it (no final snapshot, no flush courtesy),
// restart it on the same data directory, and require the recovered
// canonical state to be digest-identical. A second round kills the daemon
// *mid-churn* and requires the restart to recover cleanly — the journal's
// torn-tail repair and replay integrity checks run for real.
func TestCrashRecoveryTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildAdmitd(t, dir)
	data := filepath.Join(dir, "data")

	// Round 1: deterministic churn to completion, digest, SIGKILL, restart,
	// digest again. fsync=always so every acknowledged op is durable.
	srv, addr, out := startAdmitd(t, bin, dir, "-data", data, "-fsync", "always")
	canonDigest(t, bin, addr) // retries until recovery of the empty directory ends
	if code, cout := exitCode(t, bin, "-churn", addr, "-churn-ops", "400", "-churn-seed", "42"); code != 0 {
		srv.Process.Kill()
		t.Fatalf("churn failed (exit %d):\n%s\nserver:\n%s", code, cout, out.String())
	}
	before := canonDigest(t, bin, addr)
	if err := srv.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	srv.Wait()

	srv, addr, out = startAdmitd(t, bin, dir, "-data", data, "-fsync", "always")
	after := canonDigest(t, bin, addr)
	if before != after {
		t.Fatalf("state diverged across SIGKILL/recovery:\n before %s\n after  %s\nserver:\n%s", before, after, out.String())
	}

	// Round 2: SIGKILL mid-churn. The client dies with the connection; all
	// that is required is that the restart recovers without refusing (replay
	// re-verifies every record) and still serves the API.
	churn := exec.Command(bin, "-churn", addr, "-churn-ops", "100000", "-churn-seed", "7", "-churn-prefix", "torture")
	churn.Stdout, churn.Stderr = io.Discard, io.Discard
	if err := churn.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let a few thousand ops land
	if err := srv.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	churn.Wait()

	srv, addr, out = startAdmitd(t, bin, dir, "-data", data, "-fsync", "always")
	canonDigest(t, bin, addr) // recovered daemon serves canonical state again
	if code, cout := exitCode(t, bin, "-check", addr, "-check-load", "50"); code != 0 {
		srv.Process.Kill()
		t.Fatalf("post-recovery check failed (exit %d):\n%s\nserver:\n%s", code, cout, out.String())
	}
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("clean shutdown after recovery: %v\n%s", err, out.String())
	}
}

// TestDurabilityFlagValidation pins exit 2 for every malformed durability,
// gate, or timeout flag — misconfiguration must die loudly at startup, not
// surface as runtime behavior.
func TestDurabilityFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildAdmitd(t, dir)
	cases := [][]string{
		{"-fsync", "sometimes"},
		{"-fsync-interval", "0s"},
		{"-fsync-interval", "-1ms"},
		{"-gate-concurrency", "-1"},
		{"-gate-queue", "-2"},
		{"-request-timeout", "-1s"},
		{"-retry-after", "-1s"},
		{"-read-header-timeout", "-1s"},
		{"-read-timeout", "-1s"},
		{"-write-timeout", "-1s"},
		{"-idle-timeout", "-1s"},
		{"-check", "127.0.0.1:9", "-churn", "127.0.0.1:9"},
		{"-check", "127.0.0.1:9", "-scrape", "127.0.0.1:9"},
		{"-churn", "127.0.0.1:9", "-churn-ops", "-1"},
		{"-access-sample", "0"},
		{"-slow-ms", "-1"},
		{"-trace-ring", "-1"},
		{"-access-log", filepath.Join(dir, "no-such-dir", "access.jsonl")},
	}
	for _, args := range cases {
		if code, out := exitCode(t, bin, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
}

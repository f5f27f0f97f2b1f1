package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one admitd process the benchmark spawned. Every daemon is
// stopped and waited for before the run ends (see fleet).
type daemon struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
	done chan struct{}
	err  error
}

// fleet tracks spawned daemons so every exit path stops them.
type fleet struct{ all []*daemon }

// stopAll SIGKILLs every daemon still running and waits for each.
func (f *fleet) stopAll() {
	for _, d := range f.all {
		d.stop(syscall.SIGKILL)
	}
}

// spawn starts admitd serving on a free loopback port, journaling into
// dataDir when it is non-empty, and returns once /readyz answers 200.
func (f *fleet) spawn(bin, workDir, dataDir string) (*daemon, error) {
	addrFile := filepath.Join(workDir, fmt.Sprintf("admitd-%d.addr", len(f.all)))
	os.Remove(addrFile)
	args := []string{"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-q"}
	if dataDir != "" {
		// admitd's default fsync policy, the one its runbook recommends
		// (batch: each mutation's append is on the request path, fsyncs are
		// group-committed). Under -fsync always the host disk's fsync
		// latency, which swings 2x from one minute to the next on a shared
		// machine, set every request's latency and ten-run spreads reached
		// 0.43.
		args = append(args, "-data", dataDir)
	}
	logf, err := os.OpenFile(filepath.Join(workDir, "admitd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start admitd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), hc: &http.Client{Timeout: 10 * time.Second}}
	f.all = append(f.all, d)
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("admitd exited during start-up: %v", d.err)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("admitd not ready after 30s")
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if code, _, err := d.do("GET", "/readyz", nil, nil); err == nil && code == 200 {
				return d, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// do sends one request and returns the status and body.
func (d *daemon) do(method, path string, body []byte, hdr map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// createTenants registers the workload's virtual clusters.
func (d *daemon) createTenants(tenants []tenantSpec) error {
	for _, t := range tenants {
		body := fmt.Sprintf(`{"name":%q,"m":%d,"policy":%q}`, t.Name, t.M, t.Policy)
		code, raw, err := d.do("POST", "/v1/clusters", []byte(body), nil)
		if err != nil || code != http.StatusCreated {
			return fmt.Errorf("create %s: code %d body %s err %v", t.Name, code, raw, err)
		}
	}
	return nil
}

// canon returns the daemon's canonical registry state (hex).
func (d *daemon) canon() (string, error) {
	code, raw, err := d.do("GET", "/v1/canon", nil, nil)
	if err != nil || code != 200 {
		return "", fmt.Errorf("/v1/canon: code %d err %v", code, err)
	}
	var v struct {
		Canon string `json:"canon"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("/v1/canon: %w", err)
	}
	return v.Canon, nil
}

// stop signals the daemon (if it still runs) and waits for it to exit.
func (d *daemon) stop(sig syscall.Signal) {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(sig)
	<-d.done
	d.hc.CloseIdleConnections()
}

// hwmMB reads the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) hwmMB() (float64, error) {
	return procHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// cpuSeconds reads the daemon's user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 per second).
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / 100, nil
}

func procHWM(path string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// selfHWM is the benchmark process's own peak resident set in MB.
func selfHWM() float64 {
	mb, err := procHWM("/proc/self/status")
	if err != nil {
		return 0
	}
	return mb
}

// selfCPU is the benchmark process's user+system CPU time.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// selfWrittenBytes is the bytes this process has passed to write calls
// (wchar in /proc/self/io).
func selfWrittenBytes() float64 {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n
		}
	}
	return 0
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

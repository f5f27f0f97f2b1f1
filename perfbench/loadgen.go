package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// warmupCap bounds the untimed fill phase of a tenant: it ends when the
// population first reaches the target or after this many ops.
const warmupCap = 4000

// tenantLog is everything one closed-loop connection sent and got back.
// The verdict oracle replays ops in order; latencies cover the timed phase.
type tenantLog struct {
	spec     tenantSpec
	gen      *streamGen
	conn     net.Conn // the tenant's keep-alive connection, dialed on first use
	br       *bufio.Reader
	req      []byte // request buffer, reused
	ops      []op
	verdicts []verdict
	timed    []sample // one per op answered in the timed phase
	sent     [2]int   // per phase: warm-up, timed
	failed   [2]int
	stopped  error // first transport or status error; the tenant stops there
}

type sample struct {
	class string
	us    float64
	done  time.Time
}

func newTenantLogs(tenants []tenantSpec, seed int64) []*tenantLog {
	logs := make([]*tenantLog, len(tenants))
	for i, t := range tenants {
		logs[i] = &tenantLog{spec: t, gen: newStreamGen(t, seed, i)}
	}
	return logs
}

func (tl *tenantLog) close() {
	if tl.conn != nil {
		tl.conn.Close()
	}
}

// step sends the tenant's next op and records the answer. It reports false
// once the tenant has stopped on an error: the answer to the failed op is
// unknown, so the stream cannot go on.
func (tl *tenantLog) step(base string, phase int) bool {
	if tl.stopped != nil {
		return false
	}
	o := tl.gen.next()
	path := "/v1/clusters/" + tl.spec.Name + "/admit"
	if o.Kind == opRemove {
		path = "/v1/clusters/" + tl.spec.Name + "/remove"
	}
	tl.sent[phase]++
	start := time.Now()
	v, err := tl.post(base, path, o)
	end := time.Now()
	us := float64(end.Sub(start).Nanoseconds()) / 1e3
	if err != nil {
		tl.failed[phase]++
		tl.stopped = fmt.Errorf("%s op %d: %w", tl.spec.Name, len(tl.ops), err)
		return false
	}
	tl.gen.observe(o, v)
	tl.ops = append(tl.ops, o)
	tl.verdicts = append(tl.verdicts, v)
	if phase == 1 {
		tl.timed = append(tl.timed, sample{o.class(v), us, end})
	}
	return true
}

// post sends one request on the tenant's connection and decodes the
// verdict. The client writes HTTP/1.1 by hand and parses the response with
// http.ReadResponse: net/http's Transport adds goroutine hand-offs to every
// request, CPU the closed loop takes from the daemon on a two-CPU machine.
// In paired runs it raised p50_us by ≈ 60–70 µs and cut ops_per_s by a
// fifth (admit-mem) to two fifths (admit-durable); see README.md.
func (tl *tenantLog) post(base, path string, o op) (verdict, error) {
	host := strings.TrimPrefix(base, "http://")
	if tl.conn == nil {
		c, err := net.DialTimeout("tcp", host, 10*time.Second)
		if err != nil {
			return verdict{}, err
		}
		tl.conn, tl.br = c, bufio.NewReader(c)
	}
	body := o.body()
	b := append(tl.req[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	tl.req = b
	if err := tl.conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return verdict{}, err
	}
	if _, err := tl.conn.Write(b); err != nil {
		return verdict{}, err
	}
	resp, err := http.ReadResponse(tl.br, nil)
	if err != nil {
		return verdict{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return verdict{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return verdict{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	v, err := decodeVerdict(raw)
	if err != nil {
		return verdict{}, err
	}
	if o.Kind == opRemove && !v.Removed {
		return verdict{}, fmt.Errorf("remove of resident handle %d answered %s", o.Handle, raw)
	}
	return v, nil
}

// decodeVerdict reads the verdict fields of an admit or remove response.
func decodeVerdict(raw []byte) (verdict, error) {
	var v struct {
		Accepted bool   `json:"accepted"`
		Handle   uint64 `json:"handle"`
		Proc     int    `json:"proc"`
		Cause    string `json:"cause"`
		Removed  bool   `json:"removed"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return verdict{}, err
	}
	return verdict{Accepted: v.Accepted, Handle: v.Handle, Proc: v.Proc, Cause: v.Cause, Removed: v.Removed}, nil
}

// warmLoad fills every tenant, each on its own connection, until its
// population first reaches the target (untimed).
func warmLoad(base string, logs []*tenantLog) {
	var wg sync.WaitGroup
	for _, tl := range logs {
		wg.Add(1)
		go func(tl *tenantLog) {
			defer wg.Done()
			for i := 0; i < warmupCap && tl.gen.population() < tl.spec.Target; i++ {
				if !tl.step(base, 0) {
					return
				}
			}
		}(tl)
	}
	wg.Wait()
}

// timedLoad runs every tenant's closed loop on its own connection for the
// given duration and returns the measured length of the phase.
func timedLoad(base string, logs []*tenantLog, timed time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(timed)
	for _, tl := range logs {
		wg.Add(1)
		go func(tl *tenantLog) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if !tl.step(base, 1) {
					return
				}
			}
		}(tl)
	}
	wg.Wait()
	return time.Since(start)
}

// loadTotals sums the tenants' request counts.
func loadTotals(logs []*tenantLog) (sent, failed [2]int) {
	for _, tl := range logs {
		for p := 0; p < 2; p++ {
			sent[p] += tl.sent[p]
			failed[p] += tl.failed[p]
		}
	}
	return sent, failed
}

// timedLatencies returns the timed-phase latencies of one class (all
// classes when class is empty).
func timedLatencies(logs []*tenantLog, class string) []float64 {
	var out []float64
	for _, tl := range logs {
		for _, s := range tl.timed {
			if class == "" || s.class == class {
				out = append(out, s.us)
			}
		}
	}
	return out
}

// windows splits the timed phase that began at start into whole one-second
// windows (a trailing partial window is dropped) and returns each window's
// latencies.
func windows(logs []*tenantLog, start time.Time, dur time.Duration) [][]float64 {
	wins := make([][]float64, max(int(dur/time.Second), 1))
	for _, tl := range logs {
		for _, s := range tl.timed {
			if i := int(s.done.Sub(start) / time.Second); i < len(wins) {
				wins[i] = append(wins[i], s.us)
			}
		}
	}
	return wins
}

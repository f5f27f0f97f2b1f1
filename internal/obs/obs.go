// Package obs is the instrumentation layer of the reproduction: atomic
// counters and bounded histograms behind a global enable switch, a
// structured decision-trace recorder for the partitioning algorithms, and
// wall-clock spans for experiment phases. It is stdlib-only and built for
// two hard requirements:
//
//  1. Zero overhead when disabled. Every Counter.Add / Histogram.Observe
//     checks one atomic bool and returns; the decision-trace hooks in
//     internal/partition cost a single nil check.
//  2. Determinism. Counters only ever accumulate — no analysis code reads
//     them back — so enabling or disabling instrumentation can never change
//     experiment output, and because the instrumented work itself is
//     deterministic, counter totals are identical at any worker count.
//     Wall-clock data (spans) is kept strictly separate from counter data
//     so deterministic snapshots stay comparable.
//
// The Default registry collects every metric created via NewCounter /
// NewHistogram; Default.Snapshot() returns a name-sorted, render-ready view
// and Reset() rearms it between experiments.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

var on atomic.Bool

// SetEnabled turns metric collection on or off globally. Disabled is the
// default; analysis hot paths then pay one atomic load per hook.
func SetEnabled(v bool) { on.Store(v) }

// On reports whether metric collection is enabled.
func On() bool { return on.Load() }

// numStripes is the per-metric stripe count. Hot counters are hammered by
// every experiment worker at once; a single atomic word then ping-pongs its
// cache line between cores and the contention dominates the hook cost.
// Striping the word numStripes ways (each stripe on its own cache line)
// keeps Add wait-free and totals exact — reads just sum the stripes.
const numStripes = 16

// stripe is one cache-line-isolated accumulator cell.
type stripe struct {
	v atomic.Int64
	_ [56]byte // pad to 64 bytes so neighboring stripes never false-share
}

// stripeIdx picks the calling goroutine's stripe. Concurrently live
// goroutines occupy distinct stacks, so the address of a stack variable is a
// free quasi-goroutine-ID; a golden-ratio multiply diffuses whichever bits
// distinguish the stacks into the top bits. Collisions only cost contention,
// never correctness, and the value need not be stable across calls.
func stripeIdx() int {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b)) >> 4)
	return int((h*0x9e3779b97f4a7c15)>>60) & (numStripes - 1)
}

// Counter is a monotonically increasing striped atomic counter. The zero
// value is unusable; obtain counters from a Registry (or NewCounter for
// Default).
type Counter struct {
	name    string
	stripes [numStripes]stripe
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds 1 when instrumentation is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n when instrumentation is enabled.
func (c *Counter) Add(n int64) {
	if on.Load() {
		c.stripes[stripeIdx()].v.Add(n)
	}
}

// Value returns the current total: the sum over stripes. It is exact
// whenever no Add is concurrently in flight (every reader in the repo
// snapshots after the instrumented work has joined).
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.stripes {
		t += c.stripes[i].v.Load()
	}
	return t
}

// defaultBounds is the bucket layout used when a histogram is created
// without explicit bounds — tuned for "iterations per call" style counts.
var defaultBounds = []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// histStripe is one worker-stripe of a Histogram: its own bucket array and
// sum, each allocation private to the stripe so concurrent observers on
// different stripes never share cache lines.
type histStripe struct {
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
	_      [48]byte
}

// Histogram is a bounded histogram over int64 observations: a fixed set of
// ascending upper bounds plus one overflow bucket, with total count, sum
// and max tracked atomically (counts and sum striped like Counter). The
// bucket layout is fixed at creation, so memory use is bounded regardless
// of observation volume.
type Histogram struct {
	name    string
	bounds  []int64
	stripes [numStripes]histStripe
	max     atomic.Int64
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records v when instrumentation is enabled. v is placed in the
// first bucket whose upper bound is ≥ v, or in the overflow bucket. The
// bucket scan is linear: layouts are a dozen or so buckets, where the scan
// beats sort.Search's closure-calling binary search on the hot path.
func (h *Histogram) Observe(v int64) {
	if !on.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && h.bounds[i] < v {
		i++
	}
	st := &h.stripes[stripeIdx()]
	st.counts[i].Add(1)
	st.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// bucketCount returns bucket i's total across stripes.
func (h *Histogram) bucketCount(i int) int64 {
	var t int64
	for s := range h.stripes {
		t += h.stripes[s].counts[i].Load()
	}
	return t
}

// sumTotal returns the observation sum across stripes.
func (h *Histogram) sumTotal() int64 {
	var t int64
	for s := range h.stripes {
		t += h.stripes[s].sum.Load()
	}
	return t
}

// Gauge is a point-in-time level metric: unlike a Counter it can go down
// (queue depth, resident tasks) or be a pure view over state owned
// elsewhere (a GaugeFunc reading an atomic the instrumented code already
// maintains). Settable gauges follow the global enable switch like every
// other metric; func gauges are evaluated at snapshot time and cost the
// instrumented code nothing at all.
type Gauge struct {
	name string
	v    atomic.Int64
	fn   atomic.Pointer[func() int64]
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v when instrumentation is enabled.
func (g *Gauge) Set(v int64) {
	if on.Load() {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative to decrease) when instrumentation is
// enabled.
func (g *Gauge) Add(d int64) {
	if on.Load() {
		g.v.Add(d)
	}
}

// Value returns the gauge's current level: the callback's answer for a
// func gauge, the stored value otherwise.
func (g *Gauge) Value() int64 {
	if p := g.fn.Load(); p != nil {
		return (*p)()
	}
	return g.v.Load()
}

// GaugeValue is one gauge in a Snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketValue is one histogram bucket in a Snapshot. Upper = -1 marks the
// overflow (+Inf) bucket.
type BucketValue struct {
	Upper int64 `json:"upper"`
	Count int64 `json:"count"`
}

// HistogramValue is one histogram in a Snapshot.
type HistogramValue struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Buckets []BucketValue `json:"buckets"`
}

// Mean returns the average observation, or 0 for an empty histogram.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// SpanValue is one completed wall-clock span in a Snapshot. Spans are
// inherently nondeterministic; they are reported apart from counters so the
// deterministic part of a snapshot stays comparable across runs.
type SpanValue struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Snapshot is a point-in-time view of a registry, with counters, gauges
// and histograms sorted by name.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
	Spans      []SpanValue      `json:"spans,omitempty"`
}

// GetGauge returns the value of the named gauge, or 0 if absent.
func (s Snapshot) GetGauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Get returns the value of the named counter, or 0 if absent.
func (s Snapshot) Get(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// GetHistogram returns the named histogram view and whether it exists.
func (s Snapshot) GetHistogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// WriteText renders the snapshot as aligned "name value" lines, histograms
// with count/mean/max and per-bucket tallies, and spans with seconds.
func (s Snapshot) WriteText(w io.Writer) {
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, c := range s.Counters {
		fmt.Fprintf(w, "%-*s %d\n", width, c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "gauge %s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "%s count=%d mean=%.2f max=%d\n", h.Name, h.Count, h.Mean(), h.Max)
		for _, b := range h.Buckets {
			if b.Count == 0 {
				continue
			}
			if b.Upper < 0 {
				fmt.Fprintf(w, "  ≤+Inf %d\n", b.Count)
			} else {
				fmt.Fprintf(w, "  ≤%-4d %d\n", b.Upper, b.Count)
			}
		}
	}
	for _, sp := range s.Spans {
		fmt.Fprintf(w, "span %s %.3fs\n", sp.Name, sp.Seconds)
	}
}

// Registry holds a named set of counters and histograms plus completed
// spans. The zero value is not usable; use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanValue
}

// Default is the process-wide registry the analysis packages register
// their metrics in.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the settable gauge registered under name, creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers (or re-points) a callback gauge: fn is evaluated at
// snapshot time, so the instrumented code pays nothing per update. Re-
// registration replaces the callback — the latest owner of the name wins,
// which is what lets a restarted service (or a test building services in a
// loop) re-bind instance state without leaking dead closures into scrapes.
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	g.fn.Store(&fn)
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket upper bounds on first use (defaultBounds when
// none are given). Bounds are fixed by the first creation.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if len(bounds) == 0 {
		bounds = defaultBounds
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, bounds: b}
	for s := range h.stripes {
		h.stripes[s].counts = make([]atomic.Int64, len(b)+1)
	}
	r.hists[name] = h
	return h
}

// Snapshot returns the registry's current state, name-sorted. Func gauges
// are evaluated after the registry lock is released: callbacks reach into
// instrumented code (shard maps, gate internals) that takes its own locks,
// and evaluating them under r.mu would couple those lock orders to the
// registry's.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	var s Snapshot
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	sort.Slice(s.Counters, func(a, b int) bool { return s.Counters[a].Name < s.Counters[b].Name })
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	for _, h := range r.hists {
		hv := HistogramValue{Name: h.name, Sum: h.sumTotal(), Max: h.max.Load()}
		for i := 0; i <= len(h.bounds); i++ {
			upper := int64(-1)
			if i < len(h.bounds) {
				upper = h.bounds[i]
			}
			n := h.bucketCount(i)
			hv.Count += n
			hv.Buckets = append(hv.Buckets, BucketValue{Upper: upper, Count: n})
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Histograms, func(a, b int) bool { return s.Histograms[a].Name < s.Histograms[b].Name })
	s.Spans = append(s.Spans, r.spans...)
	r.mu.Unlock()

	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Value: g.Value()})
	}
	sort.Slice(s.Gauges, func(a, b int) bool { return s.Gauges[a].Name < s.Gauges[b].Name })
	return s
}

// Value returns the named counter's current total (0 if absent).
func (r *Registry) Value(name string) int64 {
	r.mu.Lock()
	c, ok := r.counters[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// Reset zeroes every counter and histogram and discards completed spans.
// Registered metric objects stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		for i := range c.stripes {
			c.stripes[i].v.Store(0)
		}
	}
	for _, g := range r.gauges {
		g.v.Store(0) // func gauges keep their callback: they mirror live state
	}
	for _, h := range r.hists {
		for s := range h.stripes {
			st := &h.stripes[s]
			for i := range st.counts {
				st.counts[i].Store(0)
			}
			st.sum.Store(0)
		}
		h.max.Store(0)
	}
	r.spans = nil
}

// NewCounter registers (or fetches) a counter in the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge registers (or fetches) a settable gauge in the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram registers (or fetches) a histogram in the Default registry.
func NewHistogram(name string, bounds ...int64) *Histogram {
	return Default.Histogram(name, bounds...)
}

// Value returns the named Default-registry counter total.
func Value(name string) int64 { return Default.Value(name) }

// Reset rearms the Default registry.
func Reset() { Default.Reset() }

package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"time"
)

// span is one timed call into a layer's public entry point during a traced
// replay. Op is the index of the call in the replayed op stream, shared by
// every layer, so the same request can be lined up across layers.
type span struct {
	Layer string
	Op    int
	Class string
	Start time.Duration // since the recorder's epoch
	Dur   time.Duration
}

// recorder keeps spans in memory (preallocated, so recording does not
// allocate inside a measured loop) and writes them out at the end.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) record(layer string, opIdx int, class string, start, end time.Time) {
	r.spans = append(r.spans, span{Layer: layer, Op: opIdx, Class: class, Start: start.Sub(r.epoch), Dur: end.Sub(start)})
}

// layer returns the per-op durations (µs) of one layer, indexed by op, NaN
// where the layer did not run that op, and the class of each op.
func (r *recorder) layer(name string, nOps int) (durUS []float64, class []string) {
	durUS = make([]float64, nOps)
	class = make([]string, nOps)
	for i := range durUS {
		durUS[i] = math.NaN()
	}
	for _, s := range r.spans {
		if s.Layer == name && s.Op < nOps {
			durUS[s.Op] = float64(s.Dur.Nanoseconds()) / 1e3
			class[s.Op] = s.Class
		}
	}
	return durUS, class
}

// writeTSV writes every span as one tab-separated line:
// layer, op index, class, start µs, duration µs.
func (r *recorder) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\top\tclass\tstart_us\tdur_us")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%s\t%.3f\t%.3f\n", s.Layer, s.Op, s.Class,
			float64(s.Start.Nanoseconds())/1e3, float64(s.Dur.Nanoseconds())/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes subtracts the layer below from a layer, op by op: entry i is
// parent[i] − child[i], the time op i spent in the parent's own code. Ops
// either layer did not run (NaN) are skipped. Only ops of the given class
// count; an empty class keeps every op.
func selfTimes(parent, child []float64, class []string, want string) []float64 {
	var out []float64
	for i := range parent {
		if i >= len(child) || math.IsNaN(parent[i]) || math.IsNaN(child[i]) {
			continue
		}
		if want != "" && class[i] != want {
			continue
		}
		out = append(out, parent[i]-child[i])
	}
	return out
}

// ofClass keeps the non-NaN durations of ops of one class (all ops when
// want is empty).
func ofClass(dur []float64, class []string, want string) []float64 {
	var out []float64
	for i, d := range dur {
		if math.IsNaN(d) || (want != "" && class[i] != want) {
			continue
		}
		out = append(out, d)
	}
	return out
}

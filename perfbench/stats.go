package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first. A percentile qualifies only when at least minBeyond samples lie
// above it, so a tail figure never rests on a handful of outliers.
var tailLadder = []float64{99, 90, 50}

const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summary is one latency population reported by the percentile rule: its
// median, its tail at the highest qualifying percentile, and the count.
type summary struct {
	N     int
	P50   float64
	TailP float64 // the percentile the tail is reported at (0: none)
	Tail  float64
}

func summarize(xs []float64) summary {
	return summarizeAt(xs, tailPercentile(len(xs)))
}

// summarizeAt summarizes xs with the tail taken at percentile p (0: none).
func summarizeAt(xs []float64, p float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := summary{N: len(s), P50: math.NaN(), Tail: math.NaN()}
	if len(s) == 0 {
		return sum
	}
	sum.P50 = percentile(s, 50)
	if p > 0 {
		sum.TailP = p
		sum.Tail = percentile(s, p)
	}
	return sum
}

// summarizeWindows reports a population measured in windows — one-second
// slices of an admission run, or the passes of a paper run — as the median
// across windows of each window's p50 and tail. The tail percentile is the
// one the smallest window supports, so every window reports the same
// percentile, and one disturbed window cannot move the figure.
func summarizeWindows(wins [][]float64) summary {
	smallest := -1
	total := 0
	for _, w := range wins {
		total += len(w)
		if smallest < 0 || len(w) < smallest {
			smallest = len(w)
		}
	}
	p := tailPercentile(max(smallest, 0))
	var p50s, tails []float64
	for _, w := range wins {
		s := summarizeAt(w, p)
		p50s = append(p50s, s.P50)
		tails = append(tails, s.Tail)
	}
	out := summary{N: total, P50: median(p50s), Tail: math.NaN()}
	if p > 0 {
		out.TailP, out.Tail = p, median(tails)
	}
	return out
}

// String renders the summary with its percentile and sample count, as the
// human-readable report prints it.
func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	tail := "no tail (fewer than 20 samples)"
	if s.TailP > 0 {
		tail = fmt.Sprintf("p%g %.1f", s.TailP, s.Tail)
	}
	return fmt.Sprintf("p50 %.1f  %s  (n=%d)", s.P50, tail, s.N)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

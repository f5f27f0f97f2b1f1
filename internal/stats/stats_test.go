package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestMinMax(t *testing.T) {
	if got := Max([]float64{3, -1, 7, 2}); got != 7 {
		t.Errorf("Max = %g, want 7", got)
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("empty Max should be -Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %g", got)
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile sorted its input in place")
	}
}

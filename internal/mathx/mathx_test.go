package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 5, 0},
		{1, 5, 1},
		{5, 5, 1},
		{6, 5, 2},
		{10, 5, 2},
		{11, 5, 3},
		{-3, 5, 0},
		{math.MaxInt64, 1, math.MaxInt64},
		// Near-MaxInt64 dividends: the naive (a+b-1)/b form wraps negative
		// here; CeilDiv must stay exact.
		{math.MaxInt64, 2, math.MaxInt64/2 + 1},
		{math.MaxInt64 - 1, math.MaxInt64, 1},
		{math.MaxInt64, math.MaxInt64, 1},
		{math.MaxInt64, math.MaxInt64 - 1, 2},
		{math.MaxInt64, 3, math.MaxInt64/3 + 1},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCeilDivUBoundaries proves CeilDivU ≡ CeilDiv on the documented domain
// (a ≥ 0, b > 0) at every boundary the branch-free remainder trick could get
// wrong: a ∈ {0, 1, b-1, b, b+1, 2b-1, 2b, MaxInt64-1, MaxInt64} against
// small, large and extreme divisors.
func TestCeilDivUBoundaries(t *testing.T) {
	divisors := []int64{1, 2, 3, 5, 7, 1 << 20, math.MaxInt64/2 + 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, b := range divisors {
		dividends := []int64{0, 1, b - 1, b, math.MaxInt64 - 1, math.MaxInt64}
		if b <= math.MaxInt64/2 {
			dividends = append(dividends, b+1, 2*b-1, 2*b)
		}
		for _, a := range dividends {
			if a < 0 {
				continue // b-1 underflows the domain only for b = 0, excluded
			}
			if got, want := CeilDivU(a, b), CeilDiv(a, b); got != want {
				t.Errorf("CeilDivU(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestCeilDivUQuick crosschecks CeilDivU against CeilDiv on random valid
// inputs, including dividends drawn near MaxInt64.
func TestCeilDivUQuick(t *testing.T) {
	f := func(a, b int64) bool {
		if a < 0 {
			a = -(a + 1) // map into [0, MaxInt64]
		}
		if b == math.MinInt64 {
			b = math.MaxInt64
		} else if b < 0 {
			b = -b
		} else if b == 0 {
			b = 1
		}
		return CeilDivU(a, b) == CeilDiv(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestCeilDivPanicsOnBadDivisor(t *testing.T) {
	for _, b := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CeilDiv(1,%d) did not panic", b)
				}
			}()
			CeilDiv(1, b)
		}()
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{0, 7, 7},
		{7, 0, 7},
		{12, 18, 6},
		{18, 12, 6},
		{-12, 18, 6},
		{12, -18, 6},
		{17, 13, 1},
		{100, 100, 100},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 5, 0},
		{5, 0, 0},
		{4, 6, 12},
		{7, 13, 91},
		{10, 10, 10},
		{math.MaxInt64, 2, math.MaxInt64}, // saturates
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b); got != c.want {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDPropertyDividesBoth(t *testing.T) {
	f := func(a, b int32) bool {
		g := GCD(int64(a), int64(b))
		if g == 0 {
			return a == 0 && b == 0
		}
		return int64(a)%g == 0 && int64(b)%g == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCMPropertyMultipleOfBoth(t *testing.T) {
	f := func(a, b int16) bool {
		if a <= 0 || b <= 0 {
			return true
		}
		l := LCM(int64(a), int64(b))
		return l%int64(a) == 0 && l%int64(b) == 0 && l >= int64(a) && l >= int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGCDLCMProduct(t *testing.T) {
	f := func(a, b int16) bool {
		if a <= 0 || b <= 0 {
			return true
		}
		return GCD(int64(a), int64(b))*LCM(int64(a), int64(b)) == int64(a)*int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulSat(t *testing.T) {
	if got := MulSat(3, 4); got != 12 {
		t.Errorf("MulSat(3,4) = %d", got)
	}
	if got := MulSat(math.MaxInt64, 2); got != math.MaxInt64 {
		t.Errorf("MulSat overflow = %d, want saturation", got)
	}
	if got := MulSat(0, math.MaxInt64); got != 0 {
		t.Errorf("MulSat(0,max) = %d", got)
	}
}

func TestAddSat(t *testing.T) {
	if got := AddSat(3, 4); got != 7 {
		t.Errorf("AddSat(3,4) = %d", got)
	}
	if got := AddSat(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Errorf("AddSat overflow = %d, want saturation", got)
	}
}

func TestCeilDivMatchesFloat(t *testing.T) {
	f := func(a int32, b int16) bool {
		if a < 0 || b <= 0 {
			return true
		}
		want := int64(math.Ceil(float64(a) / float64(b)))
		return CeilDiv(int64(a), int64(b)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Package mathx provides small integer-math helpers used throughout the
// scheduling analyses: ceiling division, GCD/LCM with overflow saturation,
// and checked arithmetic on the discrete time domain.
//
// All scheduling analysis in this repository runs on int64 "ticks" rather
// than floating point, so that response-time fixed points, hyperperiods and
// simulation timestamps are exact. The helpers here keep that arithmetic
// honest: LCM saturates instead of wrapping, and CeilDiv panics on
// non-positive divisors (which always indicate a corrupted task set).
package mathx

import "math"

// CeilDiv returns ceil(a/b) for a >= 0, b > 0. The quotient is computed as
// a/b plus a remainder correction rather than (a+b-1)/b, so dividends near
// math.MaxInt64 cannot overflow the intermediate sum.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("mathx: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// CeilDivU returns ceil(a/b) under the PRECONDITION a >= 0, b > 0, which it
// does NOT validate — the branch-free fast path for kernel inner loops that
// have already established the precondition once per batch (internal/rta's
// struct-of-arrays kernel proves every period positive when the mirror is
// built, and every dividend is a non-negative response-time iterate).
//
// The remainder correction is arithmetic rather than a branch: for r = a%b,
// the word (r | -r) has its sign bit set iff r != 0, so shifting it right by
// 63 yields -1 exactly when the division was inexact and 0 otherwise.
// Equivalent to CeilDiv on the whole valid domain including a = MaxInt64
// (no (a+b-1)/b style intermediate that could overflow); outside the
// precondition the result is unspecified.
func CeilDivU(a, b int64) int64 {
	q := a / b
	r := a % b
	return q - ((r | -r) >> 63)
}

// GCD returns the greatest common divisor of a and b.
// GCD(0, 0) is 0 by convention; negative inputs use their absolute value.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, saturating at
// math.MaxInt64 on overflow. LCM(0, x) is 0.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	a = a / g
	if a > math.MaxInt64/absInt64(b) {
		return math.MaxInt64
	}
	return a * absInt64(b)
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// MulSat returns a*b, saturating at math.MaxInt64 for non-negative inputs.
func MulSat(a, b int64) int64 {
	if a < 0 || b < 0 {
		panic("mathx: MulSat requires non-negative operands")
	}
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// AddSat returns a+b, saturating at math.MaxInt64 for non-negative inputs.
func AddSat(a, b int64) int64 {
	if a < 0 || b < 0 {
		panic("mathx: AddSat requires non-negative operands")
	}
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// AddChecked returns a+b and true for non-negative inputs whose sum fits in
// int64, or math.MaxInt64 and false on overflow. The analysis hot paths use
// it where a silent wrap would turn an over-limit demand into a small bogus
// one; the false return lets callers degrade to an explicit verdict
// (rta.VerdictExceedsLimit) instead.
func AddChecked(a, b int64) (int64, bool) {
	if a < 0 || b < 0 {
		panic("mathx: AddChecked requires non-negative operands")
	}
	if a > math.MaxInt64-b {
		return math.MaxInt64, false
	}
	return a + b, true
}

// MulChecked returns a*b and true for non-negative inputs whose product fits
// in int64, or math.MaxInt64 and false on overflow.
func MulChecked(a, b int64) (int64, bool) {
	if a < 0 || b < 0 {
		panic("mathx: MulChecked requires non-negative operands")
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64, false
	}
	return a * b, true
}

// MaxInt64 returns the larger of a and b.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

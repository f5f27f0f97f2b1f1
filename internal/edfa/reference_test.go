package edfa

import (
	"math/rand"
	"testing"

	"repro/internal/task"
)

// schedulableReference is Schedulable before the La interval: the QPA walk
// always starts at the busy period L. Kept verbatim as the oracle for
// checkEnd's shortened interval.
func schedulableReference(sources []Demand) bool {
	if len(sources) == 0 {
		return true
	}
	u := 0.0
	implicit := true
	for _, s := range sources {
		if s.C <= 0 || s.D <= 0 || s.T <= 0 || s.C > s.D || s.D > s.T {
			return false
		}
		u += float64(s.C) / float64(s.T)
		if s.D != s.T {
			implicit = false
		}
	}
	const eps = 1e-9
	if u > 1+eps {
		return false
	}
	if implicit {
		// Implicit deadlines: EDF is schedulable iff U ≤ 1.
		return true
	}
	l := BusyPeriod(sources, analysisLimit)
	if l >= analysisLimit {
		return false // cannot bound the check interval; reject conservatively
	}
	// QPA: walk backwards from the last deadline before (or at) L.
	var dmin task.Time = -1
	for _, s := range sources {
		if dmin < 0 || s.D < dmin {
			dmin = s.D
		}
	}
	t := lastDeadlineBefore(sources, l+1)
	for t >= dmin && t > 0 {
		h := DBF(sources, t)
		if h > t {
			return false
		}
		if h < t {
			t = h
			// t may now lie below every deadline; the loop condition ends
			// the walk. If it is not itself a deadline point, the next
			// dbf(t) equals dbf at the last deadline ≤ t, which is what
			// the criterion needs.
		} else {
			t = lastDeadlineBefore(sources, t)
		}
	}
	return true
}

// maxAdditionalDemandBisect is MaxAdditionalDemand before the witness
// descent: a binary search over [0, cap] with one full QPA run per probe.
// Kept verbatim, except that it probes schedulableReference, so it is the
// whole former computation.
func maxAdditionalDemandBisect(sources []Demand, t, d, cap task.Time) task.Time {
	if cap > d {
		cap = d
	}
	if cap <= 0 {
		return 0
	}
	buf := make([]Demand, len(sources)+1)
	copy(buf, sources)
	feasible := func(c task.Time) bool {
		if c == 0 {
			return true
		}
		buf[len(sources)] = Demand{C: c, T: t, D: d}
		return schedulableReference(buf)
	}
	if feasible(cap) {
		return cap
	}
	lo, hi := task.Time(0), cap
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// decodeDemands turns fuzz bytes into up to 8 demand sources, three bytes
// each: period (4+b)·2^shift, utilization up to 0.425 (C = 0, an invalid
// source, occurs for small bytes) and D anywhere in [C, T].
func decodeDemands(data []byte, shift uint) []Demand {
	var src []Demand
	for len(data) >= 3 && len(src) < 8 {
		t := task.Time(4+int(data[0])) << shift
		c := t * task.Time(data[1]) / 600
		d := c + (t-c)*task.Time(data[2])/255
		src = append(src, Demand{C: c, T: t, D: d})
		data = data[3:]
	}
	return src
}

// topUp appends a constrained filler source that lifts the utilization of
// src to within about 10^-k of 1 (k = 1..9), with a period long enough
// that the busy period can approach analysisLimit. It returns src
// unchanged when src is already at or above 1.
func topUp(src []Demand, k uint8, shift uint) []Demand {
	u := Utilization(src)
	gap := 1.0
	for i := uint8(0); i < 1+k%9; i++ {
		gap /= 10
	}
	t := task.Time(1000003) << shift
	c := task.Time((1 - u - gap) * float64(t))
	if u >= 1 || c < 1 {
		return src
	}
	return append(src, Demand{C: c, T: t, D: c + (t-c)/2})
}

func FuzzSchedulableInterval(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{10, 40, 100, 20, 60, 30})
	f.Add(uint8(3), uint8(4), []byte{10, 40, 100, 20, 60, 30, 7, 5, 0})
	f.Add(uint8(20), uint8(9), []byte{0, 100, 0, 250, 20, 200})
	f.Add(uint8(12), uint8(6), []byte{1, 60, 40, 2, 60, 40, 3, 60, 40})
	f.Add(uint8(8), uint8(0), []byte{50, 199, 10, 50, 1, 255})
	f.Fuzz(func(t *testing.T, scale, fill uint8, data []byte) {
		shift := uint(scale % 31)
		src := decodeDemands(data, shift)
		if fill > 0 {
			src = topUp(src, fill, shift)
		}
		if got, want := Schedulable(src), schedulableReference(src); got != want {
			t.Fatalf("Schedulable = %v, reference %v (U=%.12f, L=%d) for %v",
				got, want, Utilization(src), BusyPeriod(src, analysisLimit), src)
		}
	})
}

// checkMaxAdditionalDemand fails t unless MaxAdditionalDemand equals the
// bisection and is a feasible, maximal budget ≤ min(cap, d).
func checkMaxAdditionalDemand(t *testing.T, src []Demand, period, d, cap task.Time) {
	t.Helper()
	got := MaxAdditionalDemand(src, period, d, cap)
	if want := maxAdditionalDemandBisect(src, period, d, cap); got != want {
		t.Fatalf("MaxAdditionalDemand(%v, t=%d, d=%d, cap=%d) = %d, bisection %d", src, period, d, cap, got, want)
	}
	limit := min(cap, d)
	if got < 0 || got > max(limit, 0) {
		t.Fatalf("budget %d outside [0, %d]", got, limit)
	}
	with := func(c task.Time) bool {
		return Schedulable(append(append([]Demand(nil), src...), Demand{C: c, T: period, D: d}))
	}
	if got > 0 && !with(got) {
		t.Fatalf("budget %d infeasible (src=%v t=%d d=%d)", got, src, period, d)
	}
	if got < limit && with(got+1) {
		t.Fatalf("budget %d not maximal (src=%v t=%d d=%d cap=%d)", got, src, period, d, cap)
	}
}

func FuzzMaxAdditionalDemand(f *testing.F) {
	f.Add(uint8(0), uint8(10), uint8(128), uint16(1000), []byte{10, 40, 100, 20, 60, 30})
	f.Add(uint8(2), uint8(30), uint8(255), uint16(65535), []byte{10, 40, 255, 20, 60, 255})
	f.Add(uint8(9), uint8(0), uint8(40), uint16(7), []byte{1, 60, 40, 2, 60, 40, 3, 60, 40})
	f.Add(uint8(5), uint8(200), uint8(10), uint16(300), []byte{50, 199, 10, 50, 1, 255})
	f.Add(uint8(1), uint8(3), uint8(0), uint16(2), []byte{})
	f.Fuzz(func(t *testing.T, scale, tb, db uint8, cap uint16, data []byte) {
		shift := uint(scale % 31)
		src := decodeDemands(data, shift)
		period := task.Time(4+int(tb)) << shift
		d := 1 + (period-1)*task.Time(db)/250 // d > period when db > 250
		checkMaxAdditionalDemand(t, src, period, d, task.Time(cap)<<(shift/2))
	})
}

func TestMaxAdditionalDemandMatchesBisection(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	for trial := 0; trial < 4000; trial++ {
		data := make([]byte, 3*r.Intn(7))
		r.Read(data)
		shift := uint(r.Intn(31))
		src := decodeDemands(data, shift)
		period := task.Time(4+r.Intn(200)) << shift
		d := 1 + task.Time(r.Int63n(int64(period)))
		checkMaxAdditionalDemand(t, src, period, d, 1+task.Time(r.Int63n(int64(period))))
	}
}

func TestSchedulableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	for trial := 0; trial < 4000; trial++ {
		data := make([]byte, 3*(1+r.Intn(7)))
		r.Read(data)
		shift := uint(r.Intn(31))
		src := decodeDemands(data, shift)
		if r.Intn(2) == 0 {
			src = topUp(src, uint8(r.Intn(9)), shift)
		}
		if got, want := Schedulable(src), schedulableReference(src); got != want {
			t.Fatalf("trial %d: Schedulable = %v, reference %v for %v", trial, got, want, src)
		}
	}
}

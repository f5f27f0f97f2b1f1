package edfa

import "testing"

// MaxAdditionalDemandScratch with a warm probe buffer must not allocate:
// EDF-TS calls it once per processor per window it tries. Run with
// `go test -run AllocGuard ./...`.
func TestAllocGuardMaxAdditionalDemand(t *testing.T) {
	src := []Demand{{C: 3, T: 20, D: 9}, {C: 5, T: 35, D: 30}, {C: 7, T: 60, D: 41}, {C: 2, T: 15, D: 15}}
	cases := []struct{ t, d, cap int64 }{
		{20, 12, 12}, // refuted by QPA: descends by witness
		{40, 25, 12}, // the cap fits
		{40, 10, 40}, // capped at the first deadline
	}
	var buf []Demand
	for _, c := range cases {
		_, buf = MaxAdditionalDemandScratch(src, c.t, c.d, c.cap, buf) // warm
		allocs := testing.AllocsPerRun(200, func() {
			_, buf = MaxAdditionalDemandScratch(src, c.t, c.d, c.cap, buf)
		})
		if allocs != 0 {
			t.Errorf("MaxAdditionalDemandScratch(t=%d, d=%d, cap=%d) with warm buffer: %v allocs/run, want 0", c.t, c.d, c.cap, allocs)
		}
	}
}

package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestEDFTSWholePlacement(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 2, T: 10},
		{Name: "b", C: 3, T: 15},
		{Name: "c", C: 4, T: 20, D: 12},
	}
	res := (EDFTS{}).Partition(ts, 2)
	if !res.OK {
		t.Fatalf("failed: %s", res.Reason)
	}
	if res.NumSplit != 0 {
		t.Errorf("unnecessary splits: %d", res.NumSplit)
	}
	if err := VerifyEDF(res); err != nil {
		t.Fatal(err)
	}
}

func TestEDFTSSplitsWhatStrictEDFCannot(t *testing.T) {
	// Three tasks of U = 0.6 on two processors: strict partitioned EDF
	// fails (bin packing), EDF-TS splits.
	ts := task.Set{
		{Name: "a", C: 6, T: 10},
		{Name: "b", C: 6, T: 10},
		{Name: "c", C: 6, T: 10},
	}
	if res := (EDFFirstFit{}).Partition(ts, 2); res.OK {
		t.Fatal("strict EDF fit 3×0.6 on 2 processors")
	}
	res := (EDFTS{}).Partition(ts, 2)
	if !res.OK {
		t.Fatalf("EDF-TS failed: %s", res.Reason)
	}
	if res.NumSplit == 0 {
		t.Error("no split recorded")
	}
	if err := VerifyEDF(res); err != nil {
		t.Fatalf("%v\n%s", err, res.Assignment)
	}
	rep, err := sim.Simulate(res.Assignment, sim.Options{Policy: sim.PolicyEDF, StopOnMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("simulation missed: %v\n%s", rep.Misses, res.Assignment)
	}
}

func TestEDFTSConstrainedDeadlines(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 4, T: 20, D: 8},
		{Name: "b", C: 6, T: 20, D: 10},
		{Name: "c", C: 9, T: 30, D: 18},
	}
	res := (EDFTS{}).Partition(ts, 2)
	if !res.OK {
		t.Fatalf("failed: %s", res.Reason)
	}
	if err := VerifyEDF(res); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Simulate(res.Assignment, sim.Options{Policy: sim.PolicyEDF, StopOnMiss: true, HorizonCap: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("misses: %v", rep.Misses)
	}
}

func TestEDFTSFuzzVerifyAndSimulate(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	menu := gen.ChoicePeriods{Values: []task.Time{20, 40, 50, 80, 100, 200}}
	simulated, splits := 0, 0
	for trial := 0; trial < 80; trial++ {
		m := 2 + r.Intn(3)
		base, err := gen.TaskSet(r, gen.Config{
			TargetU: float64(m) * (0.5 + 0.45*r.Float64()),
			UMin:    0.05, UMax: 0.8,
			Periods: menu,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := base
		if r.Intn(2) == 0 {
			ts, err = gen.Constrain(r, base, 0.7, 1.0)
			if err != nil {
				t.Fatal(err)
			}
		}
		res := (EDFTS{}).Partition(ts, m)
		if !res.OK {
			continue
		}
		if err := VerifyEDF(res); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, res.Assignment)
		}
		rep, err := sim.Simulate(res.Assignment, sim.Options{Policy: sim.PolicyEDF, StopOnMiss: true, HorizonCap: 200_000})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("trial %d: EDF-TS partition missed: %v\nset=%v\n%s", trial, rep.Misses, ts, res.Assignment)
		}
		simulated++
		splits += res.NumSplit
	}
	if simulated < 40 {
		t.Errorf("only %d partitions simulated", simulated)
	}
	if splits == 0 {
		t.Error("fuzz never exercised a split; workload too easy")
	}
}

func TestEDFTSBeatsStrictEDFOnAverage(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	tsWins, strictWins := 0, 0
	for trial := 0; trial < 60; trial++ {
		ts, err := gen.TaskSet(r, gen.Config{TargetU: 4 * 0.93, UMin: 0.1, UMax: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		a := (EDFTS{}).Partition(ts, 4)
		b := (EDFFirstFit{}).Partition(ts, 4)
		if a.OK && !b.OK {
			tsWins++
		}
		if b.OK && !a.OK {
			strictWins++
		}
	}
	if tsWins <= strictWins {
		t.Errorf("EDF-TS wins %d vs strict EDF wins %d at U_M=0.93", tsWins, strictWins)
	}
}

func TestEDFTSOverloadFails(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 9, T: 10},
		{Name: "b", C: 9, T: 10},
		{Name: "c", C: 9, T: 10},
	}
	res := (EDFTS{}).Partition(ts, 2)
	if res.OK {
		t.Fatal("U=2.7 on 2 processors accepted")
	}
	if res.FailedTask < 0 || res.Reason == "" {
		t.Error("missing diagnostics")
	}
}

// edftsHangSets are EDF-TS inputs whose busy-period iteration used to crawl
// toward the analysis limit a few ticks per step: each fills a processor to
// exact U = 1, so a constrained source with c/T below the float slack
// passed the utilization test at exact U > 1. In the first two a window
// fragment did it (1.6 s, and no return); the window split now refuses
// their levels by the WindowCap bound before any QPA walk. In the third the
// whole-placement test does it, so only the exact over-1 refusal keeps it
// from crawling.
var edftsHangSets = []struct {
	m  int
	ts task.Set
}{
	{2, task.Set{
		{C: 17179869191, T: 17179869191},
		{C: 6547409571358627613, T: 6547409571358627613},
		{C: 4227882688418201017, T: 4227882688418201017},
		{C: 1000, T: 1000},
	}},
	{4, task.Set{
		{C: 1732377101462956489, T: 3846324958432925769, D: 3615896683307174327},
		{C: 3, T: 3},
		{C: 6618793481939527316, T: 6618793481939527316},
		{C: 287580259762, T: 1099511627776},
		{C: 4089057000607663052, T: 4611686018427400249},
		{C: 3164520923021908721, T: 6329041846043817441},
	}},
	{2, task.Set{{C: 1, T: 1}, {C: 1, T: 1}, {C: 1, T: 434041037028460038, D: 1}}},
}

// returnsWithin fails t unless f returns within limit. A call that does not
// return is left running; the test still fails.
func returnsWithin(t *testing.T, limit time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s did not return within %v", what, limit)
	}
}

func TestEDFTSTerminatesNearFullProcessors(t *testing.T) {
	for n, c := range edftsHangSets {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			returnsWithin(t, time.Second, "EDF-TS", func() {
				if res := (EDFTS{}).Partition(c.ts, c.m); res.OK {
					if err := VerifyEDF(res); err != nil {
						t.Error(err)
					}
				}
			})
		})
	}
}

// FuzzEDFTSTerminates requires EDF-TS and EDF-FF to return, within a
// deadline, on sets whose periods and execution times reach math.MaxInt64.
// The first byte picks m (2–9); each following 25-byte group is one task:
// 8 bytes each of period, execution time and deadline (each read as a
// 63-bit value and folded into range: C ∈ [1, T], D ∈ [C, T]), and a right
// shift that scales the period down, so small and huge periods mix.
func FuzzEDFTSTerminates(f *testing.F) {
	enc := func(m int, ts task.Set) []byte {
		b := []byte{byte(m - 2)}
		for _, tk := range ts {
			b = binary.LittleEndian.AppendUint64(b, uint64(tk.T)<<1)
			b = binary.LittleEndian.AppendUint64(b, uint64(tk.C-1)<<1)
			b = binary.LittleEndian.AppendUint64(b, uint64(tk.Deadline()-tk.C)<<1)
			b = append(b, 0)
		}
		return b
	}
	for _, c := range edftsHangSets {
		f.Add(enc(c.m, c.ts))
	}
	f.Add(enc(3, task.Set{{C: 300, T: 1000, D: 700}, {C: math.MaxInt64, T: math.MaxInt64}, {C: 1 << 40, T: math.MaxInt64 >> 3, D: 1 << 50}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		m := 2 + int(data[0])%8
		var ts task.Set
		for data = data[1:]; len(data) >= 25 && len(ts) < 12; data = data[25:] {
			word := func(i int) task.Time { return task.Time(binary.LittleEndian.Uint64(data[8*i:]) >> 1) }
			T := max(word(0)>>(data[24]%63), 1)
			C := 1 + word(1)%T
			ts = append(ts, task.Task{C: C, T: T, D: C + word(2)%(T-C+1)})
		}
		for _, alg := range []Algorithm{EDFTS{}, EDFFirstFit{}} {
			returnsWithin(t, 2*time.Second, fmt.Sprintf("%s on m=%d %v", alg.Name(), m, ts), func() {
				if res := alg.Partition(ts, m); res.OK {
					if err := VerifyEDF(res); err != nil {
						t.Errorf("%s: %v", alg.Name(), err)
					}
				}
			})
		}
	})
}

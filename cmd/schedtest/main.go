// Command schedtest runs a task set through every analysis and algorithm
// in the repository and prints one comparison matrix — the "which technique
// accepts my workload, and what does it cost" view a system designer wants
// first.
//
// Usage:
//
//	schedtest -set tasks.txt -m 4 [-sim]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/global"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/taskio"
)

func main() {
	var (
		setPath = flag.String("set", "", "task set file (text or JSON)")
		m       = flag.Int("m", 2, "number of processors")
		doSim   = flag.Bool("sim", false, "also simulate every successful partition (capped hyperperiod)")
	)
	flag.Parse()
	if *m < 1 {
		fmt.Fprintf(os.Stderr, "schedtest: -m must be at least 1 (got %d)\n", *m)
		os.Exit(2)
	}
	if *setPath == "" {
		fmt.Fprintln(os.Stderr, "schedtest: -set is required")
		flag.Usage()
		os.Exit(2)
	}
	ts, err := taskio.Load(*setPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedtest:", err)
		os.Exit(2)
	}

	a := core.Analyze(ts, *m)
	fmt.Printf("%d tasks on %d processors — U(τ)=%.4f, U_M=%.4f, max U_i=%.4f\n",
		a.N, a.M, a.TotalU, a.NormalizedU, a.MaxU)
	fmt.Printf("implicit=%v light=%v harmonic chains K=%d\n\n", a.Implicit, a.Light, a.HarmonicChains)

	fmt.Println("bound-only admission (no packing):")
	for _, b := range bounds.Portfolio() {
		v := b.Value(ts)
		verdict := "-"
		if a.Implicit {
			ok := a.NormalizedU <= v
			effective := v
			if !a.Light {
				if c := bounds.RMTSCapFor(a.N); effective > c {
					effective = c
				}
				ok = a.NormalizedU <= effective
			}
			verdict = yn(ok)
		}
		fmt.Printf("  %-8s Λ=%6.2f%%  accepts: %s\n", b.Name(), 100*v, verdict)
	}
	if a.Implicit {
		fmt.Printf("  %-8s Λ=%6.2f%%  accepts: %s  (global RM-US bound)\n",
			"RM-US", 100*global.USBound(*m), yn(global.SchedulableByUSBound(ts, *m)))
	}
	fmt.Println()

	// The registry's RM-TS is the one partition -algo rm-ts runs.
	rmts, _ := partition.Lookup("rm-ts", nil, nil) // registry names never fail
	type entry struct {
		alg    partition.Algorithm
		policy sim.Policy
		verify func(*partition.Result) error
	}
	entries := []entry{
		{partition.RMTSLight{}, sim.PolicyFP, partition.Verify},
		{rmts, sim.PolicyFP, partition.Verify},
		{partition.SPA1{}, sim.PolicyFP, nil},
		{partition.SPA2{}, sim.PolicyFP, nil},
		{partition.FirstFitRTA{}, sim.PolicyFP, partition.Verify},
		{partition.WorstFitRTA{}, sim.PolicyFP, partition.Verify},
		{partition.FirstFit{Admission: partition.AdmitHyperbolic}, sim.PolicyFP, nil},
		{partition.EDFFirstFit{}, sim.PolicyEDF, partition.VerifyEDF},
		{partition.EDFTS{}, sim.PolicyEDF, partition.VerifyEDF},
	}
	fmt.Println("partitioning algorithms:")
	fmt.Printf("  %-22s %-5s %-11s %-7s %-6s %-9s %s\n",
		"algorithm", "ok", "guaranteed", "splits", "pre", "time", "sim/verify")
	for _, e := range entries {
		start := time.Now()
		res := e.alg.Partition(ts, *m)
		elapsed := time.Since(start)
		extra := ""
		if res.OK {
			if e.verify != nil {
				if err := e.verify(res); err != nil {
					extra = "VERIFY FAILED: " + err.Error()
				} else {
					extra = "verified"
				}
			}
			if *doSim && res.Guaranteed {
				rep, err := sim.Simulate(res.Assignment, sim.Options{
					Policy: e.policy, StopOnMiss: true, HorizonCap: 1_000_000,
				})
				switch {
				case err != nil:
					extra += ", sim error: " + err.Error()
				case rep.Ok():
					extra += fmt.Sprintf(", sim clean (%d jobs)", rep.Completed)
				default:
					extra += fmt.Sprintf(", SIM MISS: %v", rep.Misses[0])
				}
			}
		} else {
			extra = res.Reason
		}
		fmt.Printf("  %-22s %-5s %-11s %-7d %-6d %-9s %s\n",
			e.alg.Name(), yn(res.OK), yn(res.OK && res.Guaranteed),
			res.NumSplit, res.NumPreAssigned, elapsed.Round(time.Microsecond), extra)
	}
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

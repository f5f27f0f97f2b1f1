// Command partition places a task set onto M processors with one of the
// implemented algorithms and prints the verified per-processor assignment.
//
// Usage:
//
//	partition -set tasks.txt -m 4 [-algo name] [-pub name] [-trace [-trace-format text|json]]
//
// -algo takes a name from partition.Names and -pub one from bounds.Names;
// -help lists both.
//
// The task-set file holds either "name C T" lines or the JSON format of
// internal/taskio. Exit status 1 means the set could not be scheduled.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/taskio"
)

func main() {
	var (
		setPath  = flag.String("set", "", "task set file (text or JSON)")
		m        = flag.Int("m", 2, "number of processors")
		algo     = flag.String("algo", "auto", "algorithm: "+strings.Join(partition.Names(), ", "))
		pubName  = flag.String("pub", "best", "parametric bound for RM-TS: "+strings.Join(bounds.Names(), ", "))
		quiet    = flag.Bool("q", false, "only print the verdict")
		sens     = flag.Bool("sensitivity", false, "also compute critical scaling factors (global and per task)")
		outPlan  = flag.String("o", "", "write the verified plan as JSON (replayable via simulate -plan)")
		trace    = flag.Bool("trace", false, "print the partitioning decision trace (assign attempts, RTA costs, splits)")
		traceFmt = flag.String("trace-format", "text", "decision-trace format: text or json")
	)
	flag.Parse()
	if *traceFmt != "text" && *traceFmt != "json" {
		fmt.Fprintf(os.Stderr, "partition: -trace-format must be text or json (got %q)\n", *traceFmt)
		os.Exit(2)
	}
	if *setPath == "" {
		fmt.Fprintln(os.Stderr, "partition: -set is required")
		flag.Usage()
		os.Exit(2)
	}
	if *m < 1 {
		fmt.Fprintf(os.Stderr, "partition: -m must be at least 1 (got %d)\n", *m)
		os.Exit(2)
	}
	ts, err := taskio.Load(*setPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(2)
	}

	pub, err := bounds.Lookup(*pubName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(2)
	}
	var tr *obs.Trace
	if *trace {
		// Enable the metric counters too: the trace's per-decision RTA
		// iteration deltas read the global iteration counter.
		obs.SetEnabled(true)
		tr = &obs.Trace{}
	}
	alg, err := partition.Lookup(*algo, pub, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(2)
	}

	writeTrace := func() {
		if tr == nil {
			return
		}
		if *traceFmt == "json" {
			if err := tr.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "partition: trace:", err)
				os.Exit(2)
			}
			return
		}
		tr.WriteText(os.Stdout)
	}

	plan, err := core.Partition(ts, *m, core.Options{Algorithm: alg, PUB: pub, Trace: tr})
	if err != nil {
		writeTrace()
		fmt.Fprintf(os.Stderr, "partition: NOT SCHEDULABLE: %v\n", err)
		os.Exit(1)
	}
	a := plan.Analysis
	fmt.Printf("schedulable: %d tasks on %d processors via %s\n", a.N, a.M, plan.AlgorithmName)
	fmt.Printf("U(τ)=%.4f  U_M(τ)=%.4f  max U_i=%.4f  light=%v  harmonic chains K=%d\n",
		a.TotalU, a.NormalizedU, a.MaxU, a.Light, a.HarmonicChains)
	fmt.Printf("bounds: Θ(N)=%.4f  best Λ(τ)=%.4f (%s)  RM-TS cap=%.4f  bound-backed=%v\n",
		a.Theta, a.BestBoundValue, a.BestBound, a.RMTSCap, plan.BoundBacked)
	if plan.Result.NumSplit > 0 || plan.Result.NumPreAssigned > 0 {
		fmt.Printf("split tasks: %d  pre-assigned heavy tasks: %d\n",
			plan.Result.NumSplit, plan.Result.NumPreAssigned)
	}
	if tr != nil {
		fmt.Println()
		writeTrace()
	}
	if !*quiet {
		fmt.Println()
		fmt.Print(plan.Assignment())
	}
	if *sens {
		rep, err := core.Sensitivity(ts, *m, alg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "partition: sensitivity:", err)
			os.Exit(2)
		}
		fmt.Println()
		fmt.Print(rep)
	}
	if *outPlan != "" {
		f, err := os.Create(*outPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "partition:", err)
			os.Exit(2)
		}
		defer f.Close()
		sched := plan.Result.Scheduler
		if sched == "" {
			sched = "FP"
		}
		if err := taskio.SavePlan(f, plan.Assignment(), sched); err != nil {
			fmt.Fprintln(os.Stderr, "partition:", err)
			os.Exit(2)
		}
		fmt.Printf("plan written to %s\n", *outPlan)
	}
}

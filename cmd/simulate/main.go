// Command simulate partitions a task set and executes the result on the
// discrete-event multiprocessor simulator, reporting deadline misses,
// observed worst-case response times (against their RTA bounds) and
// per-processor load.
//
// Usage:
//
//	simulate -set tasks.txt -m 4 [-horizon 1000000] [-algo name] [-continue]
//	simulate -plan plan.json            # replay a saved plan (partition -o)
//
// -algo takes a name from partition.Names (-help lists them) and builds the
// same algorithm partition does, so both commands print the same plan. The
// EDF baselines run under the EDF policy.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/taskio"
)

func main() {
	var (
		setPath  = flag.String("set", "", "task set file (text or JSON)")
		m        = flag.Int("m", 2, "number of processors")
		horizon  = flag.Int64("horizon", 0, "simulation horizon in ticks (0 = hyperperiod, capped)")
		cap      = flag.Int64("cap", 10_000_000, "hyperperiod cap when -horizon is 0")
		algo     = flag.String("algo", "auto", "algorithm: "+strings.Join(partition.Names(), ", "))
		contMiss = flag.Bool("continue", false, "continue past deadline misses and count them all")
		gantt    = flag.Int64("gantt", 0, "render a per-processor timeline of the first N ticks")
		dispOv   = flag.Int64("dispatch-overhead", 0, "context-switch cost in ticks charged per dispatch")
		migOv    = flag.Int64("migration-overhead", 0, "cost in ticks charged per fragment migration")
		planPath = flag.String("plan", "", "replay a saved plan JSON instead of partitioning (-set/-m/-algo ignored)")
	)
	flag.Parse()
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "simulate: "+format+"\n", args...)
		os.Exit(2)
	}
	if *m < 1 {
		fail("-m must be at least 1 (got %d)", *m)
	}
	if *horizon < 0 {
		fail("-horizon must be non-negative (got %d); 0 means hyperperiod", *horizon)
	}
	if *cap < 1 {
		fail("-cap must be positive (got %d)", *cap)
	}
	if *gantt < 0 {
		fail("-gantt must be non-negative (got %d)", *gantt)
	}
	if *dispOv < 0 || *migOv < 0 {
		fail("overheads must be non-negative (got dispatch=%d migration=%d)", *dispOv, *migOv)
	}
	if *planPath != "" && *setPath != "" {
		fail("-plan and -set are mutually exclusive")
	}
	if *planPath != "" {
		replayPlan(*planPath, *horizon, *cap, *contMiss, *gantt, *dispOv, *migOv)
		return
	}
	if *setPath == "" {
		fmt.Fprintln(os.Stderr, "simulate: -set or -plan is required")
		flag.Usage()
		os.Exit(2)
	}
	ts, err := taskio.Load(*setPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(2)
	}
	alg, err := partition.Lookup(*algo, nil, nil)
	if err != nil {
		fail("%v", err)
	}

	plan, err := core.Partition(ts, *m, core.Options{Algorithm: alg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: NOT SCHEDULABLE: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("partitioned by %s; simulating...\n\n", plan.AlgorithmName)
	fmt.Print(plan.Assignment())

	rep, err := plan.Simulate(sim.Options{
		Horizon:           task.Time(*horizon),
		HorizonCap:        task.Time(*cap),
		StopOnMiss:        !*contMiss,
		DispatchOverhead:  task.Time(*dispOv),
		MigrationOverhead: task.Time(*migOv),
		RecordTimeline:    *gantt > 0,
		TimelineCap:       task.Time(*gantt),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(2)
	}
	fmt.Printf("\nhorizon: %d ticks   released: %d   completed: %d   preemptions: %d   overhead: %d\n",
		rep.Horizon, rep.Released, rep.Completed, rep.Preemptions, rep.Overhead)
	if g := rep.Gantt(); g != "" {
		fmt.Printf("\ntimeline (first %d ticks, digit/letter = task index, '.' = idle):\n%s", *gantt, g)
	}
	for q, busy := range rep.Busy {
		fmt.Printf("P%d busy %d/%d ticks (%.1f%%)\n", q, busy, rep.Horizon, 100*float64(busy)/float64(rep.Horizon))
	}
	fmt.Println("\nworst observed job response times (vs period):")
	for idx := range plan.Assignment().Set {
		t := plan.Assignment().Set[idx]
		fmt.Printf("  τ%-3d %-10s  R=%d / T=%d\n", idx, t.Name, rep.WorstResponse[idx], t.T)
	}
	if rep.Ok() {
		fmt.Println("\nRESULT: no deadline misses")
	} else {
		fmt.Printf("\nRESULT: %d deadline misses (first: %s)\n", len(rep.Misses), rep.Misses[0])
		os.Exit(1)
	}
}

// replayPlan loads a saved plan and executes it directly.
func replayPlan(path string, horizon, hcap int64, contMiss bool, gantt, dispOv, migOv int64) {
	asg, scheduler, err := taskio.LoadPlan(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(2)
	}
	policy := sim.PolicyFP
	if scheduler == "EDF" {
		policy = sim.PolicyEDF
	}
	fmt.Printf("replaying %s (%s scheduler)\n\n", path, policy)
	fmt.Print(asg)
	rep, err := sim.Simulate(asg, sim.Options{
		Policy:            policy,
		Horizon:           task.Time(horizon),
		HorizonCap:        task.Time(hcap),
		StopOnMiss:        !contMiss,
		DispatchOverhead:  task.Time(dispOv),
		MigrationOverhead: task.Time(migOv),
		RecordTimeline:    gantt > 0,
		TimelineCap:       task.Time(gantt),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(2)
	}
	fmt.Printf("\nhorizon: %d ticks   released: %d   completed: %d   preemptions: %d   overhead: %d\n",
		rep.Horizon, rep.Released, rep.Completed, rep.Preemptions, rep.Overhead)
	if g := rep.Gantt(); g != "" {
		fmt.Print(g)
	}
	if rep.Ok() {
		fmt.Println("RESULT: no deadline misses")
		return
	}
	fmt.Printf("RESULT: %d deadline misses (first: %s)\n", len(rep.Misses), rep.Misses[0])
	os.Exit(1)
}

// Command explain re-runs one partitioning decision and reports WHY it came
// out the way it did: the terminal verdict, the rejection cause, the bound
// context (Θ, Λ(τ), U_M), the failing task's final fragment, per-processor
// evidence (RTA responses, MaxSplit prefixes, threshold room), and the split
// chains of the assignment.
//
// Usage:
//
//	explain -set tasks.txt -m 4 [-algo name] [-pub name] [-json]
//	explain -recipe "repro: experiment=acceptance-general point=3 sample=7 base-seed=... sample-seed=..." [-quick] [-algo name]
//
// The -recipe form accepts the replay recipe printed by a failing experiment
// sample (experiments.SampleError.Repro) and regenerates that exact task set
// from its seeds; -quick must match the original run's quick flag. Output is
// deterministic: identical inputs render byte-identical reports.
//
// -algo takes a name from partition.Names and -pub one from bounds.Names;
// -help lists both. "auto" explains the algorithm core.Choose picks.
//
// Exit status: 0 the set is accepted with a guarantee, 1 it was analyzed and
// rejected (or packed without a guarantee), 2 usage or input error — including
// sets the analysis cannot even consider (invalid tasks, or a task model the
// chosen algorithm does not cover).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/taskio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// replayInfo echoes the replayed coordinates in -json output, so a report is
// self-describing about where its task set came from.
type replayInfo struct {
	Experiment string `json:"experiment"`
	Point      int    `json:"point"`
	Sample     int    `json:"sample,omitempty"`
	SampleSeed int64  `json:"sample_seed"`
	Quick      bool   `json:"quick"`
}

type report struct {
	Replay *replayInfo `json:"replay,omitempty"`
	*explain.Explanation
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		setPath = fs.String("set", "", "task set file (text or JSON)")
		m       = fs.Int("m", 0, "number of processors (with -set)")
		recipe  = fs.String("recipe", "", "sample replay recipe (the \"repro: experiment=... sample-seed=...\" line of a sample error)")
		quick   = fs.Bool("quick", false, "the recipe's run used -quick scale")
		algo    = fs.String("algo", "auto", "algorithm: "+strings.Join(partition.Names(), ", "))
		pubName = fs.String("pub", "best", "parametric bound for RM-TS: "+strings.Join(bounds.Names(), ", "))
		jsonOut = fs.Bool("json", false, "emit the explanation as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "explain:", err)
		return 2
	}
	if (*setPath == "") == (*recipe == "") {
		return fail(fmt.Errorf("need exactly one of -set or -recipe"))
	}

	var (
		ts     task.Set
		procs  int
		replay *replayInfo
	)
	switch {
	case *recipe != "":
		if *m != 0 {
			return fail(fmt.Errorf("-m conflicts with -recipe (the experiment fixes the processor count)"))
		}
		rc, err := experiments.ParseRecipe(*recipe)
		if err != nil {
			return fail(err)
		}
		ts, procs, err = experiments.ReplaySample(rc.Experiment, *quick, rc.Point, rc.SampleSeed)
		if err != nil {
			return fail(err)
		}
		replay = &replayInfo{Experiment: rc.Experiment, Point: rc.Point,
			Sample: rc.Sample, SampleSeed: rc.SampleSeed, Quick: *quick}
	default:
		if *m < 1 {
			return fail(fmt.Errorf("-set needs -m ≥ 1 (got %d)", *m))
		}
		var err error
		ts, err = taskio.Load(*setPath)
		if err != nil {
			return fail(err)
		}
		procs = *m
	}

	pub, err := bounds.Lookup(*pubName)
	if err != nil {
		return fail(err)
	}
	alg, err := partition.Lookup(*algo, pub, nil)
	if err != nil {
		return fail(err)
	}
	if alg == nil {
		alg = core.Choose(ts, pub, nil)
	}

	// Metric counters feed the trace's per-decision RTA iteration deltas; a
	// fresh process starts them at zero, so the report stays deterministic.
	obs.SetEnabled(true)
	e := explain.Run(alg, ts, procs)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Replay: replay, Explanation: e}); err != nil {
			return fail(err)
		}
	} else {
		if replay != nil {
			fmt.Fprintf(stdout, "replayed %s point %d (quick=%v), sample seed %d: %d tasks on %d processors\n\n",
				replay.Experiment, replay.Point, replay.Quick, replay.SampleSeed, len(ts), procs)
		}
		e.WriteText(stdout)
	}
	switch {
	case e.Verdict == "accepted":
		return 0
	case e.Cause == partition.CauseInvalidInput.String() || e.Cause == partition.CauseModelMismatch.String():
		// Not an analyzed verdict: the set never reached the admission test
		// (invalid tasks, or a model the algorithm does not cover). Exit 1 is
		// reserved for "analyzed and rejected", so these are usage errors.
		fmt.Fprintf(stderr, "explain: input not analyzable: %s\n", e.CauseDetail)
		return 2
	default:
		return 1
	}
}

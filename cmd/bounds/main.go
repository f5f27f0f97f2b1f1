// Command bounds analyzes a task set's parameters and prints every
// implemented parametric utilization bound (§III), the derived RM-TS
// guarantees, and the harmonic chain structure.
//
// Usage:
//
//	bounds -set tasks.txt [-m 4]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/taskio"
)

func main() {
	var (
		setPath = flag.String("set", "", "task set file (text or JSON)")
		m       = flag.Int("m", 1, "number of processors (for normalized utilization)")
	)
	flag.Parse()
	if *m < 1 {
		fmt.Fprintf(os.Stderr, "bounds: -m must be at least 1 (got %d)\n", *m)
		os.Exit(2)
	}
	if *setPath == "" {
		fmt.Fprintln(os.Stderr, "bounds: -set is required")
		flag.Usage()
		os.Exit(2)
	}
	ts, err := taskio.Load(*setPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bounds:", err)
		os.Exit(2)
	}
	sorted := ts.Clone()
	sorted.SortRM()
	a := core.Analyze(sorted, *m)

	fmt.Printf("tasks: %d   processors: %d\n", a.N, a.M)
	fmt.Printf("U(τ) = %.4f   U_M(τ) = %.4f   max U_i = %.4f\n", a.TotalU, a.NormalizedU, a.MaxU)
	fmt.Printf("light (all U_i ≤ Θ/(1+Θ) = %.4f): %v\n", a.LightThreshold, a.Light)
	fmt.Printf("harmonic: %v   minimum harmonic chain cover K = %d\n\n", a.Harmonic, a.HarmonicChains)

	fmt.Println("parametric utilization bounds Λ(τ):")
	for _, b := range bounds.Portfolio() {
		fmt.Printf("  %-8s  %7.4f  (%.1f%%)\n", b.Name(), b.Value(sorted), 100*b.Value(sorted))
	}
	fmt.Println()
	fmt.Printf("Θ(N)            = %.4f\n", a.Theta)
	fmt.Printf("RM-TS/light guarantee (light sets, Theorem 8) = %.4f\n", a.GuaranteeLight)
	fmt.Printf("RM-TS guarantee (any set, §V)                 = %.4f (cap 2Θ/(1+Θ) = %.4f)\n", a.GuaranteeAny, a.RMTSCap)

	chains, periods := bounds.HarmonicChainCover(bounds.Periods(sorted))
	fmt.Println("\nharmonic chain cover (periods):")
	for i, ch := range chains {
		fmt.Printf("  chain %d:", i+1)
		for _, idx := range ch {
			fmt.Printf(" %d", periods[idx])
		}
		fmt.Println()
	}

	ok, bound, _ := core.BoundTest(sorted, *m)
	fmt.Printf("\nbound-only admission at M=%d: U_M=%.4f vs bound %.4f → %v\n", a.M, a.NormalizedU, bound, verdict(ok))
}

func verdict(ok bool) string {
	if ok {
		return "SCHEDULABLE (by bound)"
	}
	return "not provable by bound alone (try cmd/partition for exact RTA packing)"
}

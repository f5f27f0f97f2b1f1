package bounds

import (
	"fmt"
	"strings"
)

// Portfolio is the PUB portfolio every planner and report evaluates, in
// report order: L&L, the minimum-cover harmonic chain bound, the T-bound
// and the R-bound. All are period-parametric, so evaluating all of them is
// cheap.
func Portfolio() []PUB {
	return []PUB{LiuLayland{}, HarmonicChain{Minimal: true}, TBound{}, RBound{}}
}

// Best is Λ(τ) as the planner uses it: the largest bound of Portfolio.
func Best() PUB { return Max{Bounds: Portfolio()} }

// names is the bound vocabulary of every command's -pub flag, in
// Portfolio order followed by "best".
var names = []string{"ll", "hc", "t", "r", "best"}

// Names lists the bound names Lookup accepts.
func Names() []string { return append([]string(nil), names...) }

// Lookup returns the named bound: one Portfolio member ("ll", "hc", "t",
// "r") or "best", the maximum over all of them. An unknown name's error
// lists Names.
func Lookup(name string) (PUB, error) {
	switch name {
	case "ll":
		return LiuLayland{}, nil
	case "hc":
		return HarmonicChain{Minimal: true}, nil
	case "t":
		return TBound{}, nil
	case "r":
		return RBound{}, nil
	case "best":
		return Best(), nil
	}
	return nil, fmt.Errorf("unknown bound %q (want %s)", name, strings.Join(names, ", "))
}

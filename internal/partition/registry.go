package partition

import (
	"fmt"
	"strings"

	"repro/internal/bounds"
	"repro/internal/obs"
)

// names is the algorithm vocabulary of every command's -algo flag.
var names = []string{"auto", "rm-ts", "rm-ts-light", "spa1", "spa2", "ff", "wf", "edf-ff", "edf-ts"}

// Names lists the algorithm names Lookup accepts.
func Names() []string { return append([]string(nil), names...) }

// Lookup returns the named algorithm with tr attached as its decision trace
// (EDF-FF records none). pub is RM-TS's pre-assignment bound; nil means
// bounds.Best, so "rm-ts" is the same algorithm under every command.
//
// "auto" returns a nil Algorithm: the planner (core.Partition,
// core.Sensitivity) then chooses per call, RM-TS/light for light sets and
// RM-TS otherwise. An unknown name's error lists Names.
func Lookup(name string, pub bounds.PUB, tr *obs.Trace) (Algorithm, error) {
	if pub == nil {
		pub = bounds.Best()
	}
	switch name {
	case "auto":
		return nil, nil
	case "rm-ts":
		return &RMTS{PUB: pub, Trace: tr}, nil
	case "rm-ts-light":
		return RMTSLight{Trace: tr}, nil
	case "spa1":
		return SPA1{Trace: tr}, nil
	case "spa2":
		return SPA2{Trace: tr}, nil
	case "ff":
		return FirstFitRTA{Trace: tr}, nil
	case "wf":
		return WorstFitRTA{Trace: tr}, nil
	case "edf-ff":
		return EDFFirstFit{}, nil
	case "edf-ts":
		return EDFTS{Trace: tr}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (want %s)", name, strings.Join(names, ", "))
}

// Package faultinject is the fault-injection harness of the analysis
// pipeline: a small set of named fault sites that production code queries
// on its hot paths and that tests arm with a deterministic, seeded plan.
// Like internal/obs it is built to cost nothing when idle — every hook is a
// single atomic bool load when no plan is armed — and to never allocate, so
// the zero-allocation guarantees of the analysis hot paths hold with the
// harness compiled in.
//
// Two sites cover the failure modes the batch robustness layer must
// survive (see DESIGN.md §9):
//
//   - RTAAbort: the response-time iteration reports an iteration-cap abort
//     (rta.VerdictAborted) without doing the work, exercising the
//     treat-as-unschedulable degradation path and the cross-checks built on
//     it (e.g. the MaxSplit/AdmitAt agreement panic).
//   - SamplePanic: a panic out of an experiment sample, exercising the
//     per-sample recover() isolation in experiments.parEach.
//
// Five more cover the serving path's durability and overload machinery
// (DESIGN.md §14):
//
//   - JournalAppend: a write failure appending to an admission journal,
//     exercising the mutation-abort-and-undo path (the op is never
//     acknowledged and the journal stays usable via tail repair).
//   - JournalFsync: an fsync failure on the journal file, exercising the
//     durability-degraded error path under -fsync always.
//   - JournalTear: a torn append — only a prefix of the record reaches the
//     file, as in a crash mid-write — exercising startup torn-tail
//     recovery deterministically without killing the process.
//   - SnapshotRename: the atomic-rename step of a snapshot write fails,
//     exercising keep-the-WAL degradation (durability is unaffected; the
//     journal simply keeps growing until a snapshot lands).
//   - HandlerLatency: injected latency inside the HTTP admission gate,
//     making gate saturation and 429 shedding reproducible in tests.
//
// Firing decisions are pseudo-random but fully determined by (plan seed,
// site, per-site call ordinal): run the same single-worker workload under
// the same plan and the same calls fire. Under concurrent workers the
// ordinal assignment depends on goroutine interleaving, so multi-worker
// runs are stochastic (still seed-bounded in rate); tests that assert exact
// fire sites run with one worker, mirroring the obs trace caveat.
package faultinject

import (
	"errors"
	"sync/atomic"
	"time"
)

// Site names one fault-injection point.
type Site uint8

const (
	// RTAAbort forces rta response-time evaluations to report an
	// iteration-cap abort.
	RTAAbort Site = iota
	// SamplePanic panics out of an experiment sample.
	SamplePanic
	// The value 2 is retired: site values feed the firing hash, so
	// renumbering would move every later site's seeded firing pattern.
	_
	// JournalAppend fails admission-journal appends.
	JournalAppend
	// JournalFsync fails admission-journal fsyncs.
	JournalFsync
	// JournalTear tears an admission-journal append mid-record.
	JournalTear
	// SnapshotRename fails the atomic-rename step of a snapshot write.
	SnapshotRename
	// HandlerLatency delays a gated HTTP handler.
	HandlerLatency
	numSites
)

func (s Site) String() string {
	switch s {
	case RTAAbort:
		return "rta-abort"
	case SamplePanic:
		return "sample-panic"
	case JournalAppend:
		return "journal-append"
	case JournalFsync:
		return "journal-fsync"
	case JournalTear:
		return "journal-tear"
	case SnapshotRename:
		return "snapshot-rename"
	case HandlerLatency:
		return "handler-latency"
	default:
		return "site(?)"
	}
}

// Plan configures the harness: a seed and, per site, a firing denominator.
// A site with Every n > 0 fires on roughly one in n calls (chosen by a
// seeded hash of the call ordinal, so the firing pattern is aperiodic);
// Every 1 fires on every call; Every 0 never fires.
type Plan struct {
	// Seed drives the per-call firing hash. Two plans with the same seed
	// and rates fire at exactly the same call ordinals.
	Seed int64
	// RTAAbortEvery is the firing denominator of the RTAAbort site.
	RTAAbortEvery int64
	// SamplePanicEvery is the firing denominator of the SamplePanic site.
	SamplePanicEvery int64
	// JournalAppendEvery is the firing denominator of the JournalAppend site.
	JournalAppendEvery int64
	// JournalFsyncEvery is the firing denominator of the JournalFsync site.
	JournalFsyncEvery int64
	// JournalTearEvery is the firing denominator of the JournalTear site.
	JournalTearEvery int64
	// SnapshotRenameEvery is the firing denominator of the SnapshotRename
	// site.
	SnapshotRenameEvery int64
	// HandlerLatencyEvery is the firing denominator of the HandlerLatency
	// site; HandlerDelay is the latency injected when it fires.
	HandlerLatencyEvery int64
	HandlerDelay        time.Duration
}

var (
	armed atomic.Bool
	plan  Plan
	calls [numSites]atomic.Int64
	fired [numSites]atomic.Int64
)

// Arm installs the plan and enables the harness. Call only from
// single-goroutine setup code (tests, CLI main) — the running analysis
// reads the plan without synchronization beyond the armed flag.
func Arm(p Plan) {
	armed.Store(false)
	plan = p
	for i := range calls {
		calls[i].Store(0)
		fired[i].Store(0)
	}
	armed.Store(true)
}

// Disarm disables the harness; every hook returns to its single-atomic-load
// idle cost.
func Disarm() { armed.Store(false) }

// On reports whether a plan is armed.
func On() bool { return armed.Load() }

// Fired returns how many times the site has fired since the last Arm.
func Fired(s Site) int64 { return fired[s].Load() }

// Calls returns how many times the site has been consulted since the last
// Arm.
func Calls(s Site) int64 { return calls[s].Load() }

// splitmix64 is the SplitMix64 mixing function — a cheap, well-distributed
// hash of the (seed, site, ordinal) triple.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// should decides whether site s fires on this call under denominator every.
func should(s Site, every int64) bool {
	if every <= 0 {
		return false
	}
	n := calls[s].Add(1)
	if every == 1 || splitmix64(uint64(plan.Seed)^uint64(s)<<56^uint64(n))%uint64(every) == 0 {
		fired[s].Add(1)
		return true
	}
	return false
}

// ShouldAbortRTA reports whether the current response-time evaluation must
// simulate an iteration-cap abort. Idle cost: one atomic load.
func ShouldAbortRTA() bool {
	return armed.Load() && should(RTAAbort, plan.RTAAbortEvery)
}

// PanicValue is the value injected panics carry, so recovery layers can
// recognise them in tests.
const PanicValue = "faultinject: injected sample panic"

// MaybePanic panics with PanicValue when the SamplePanic site fires. Idle
// cost: one atomic load.
func MaybePanic() {
	if armed.Load() && should(SamplePanic, plan.SamplePanicEvery) {
		panic(PanicValue)
	}
}

// Injected serving-path errors, distinguishable by errors.Is in tests and
// degradation messages.
var (
	// ErrJournalAppend is the error injected journal-append failures surface.
	ErrJournalAppend = errors.New("faultinject: injected journal append failure")
	// ErrJournalFsync is the error injected journal-fsync failures surface.
	ErrJournalFsync = errors.New("faultinject: injected journal fsync failure")
	// ErrSnapshotRename is the error injected snapshot-rename failures
	// surface.
	ErrSnapshotRename = errors.New("faultinject: injected snapshot rename failure")
)

// JournalAppendErr returns ErrJournalAppend when the JournalAppend site
// fires, nil otherwise. Idle cost: one atomic load.
func JournalAppendErr() error {
	if armed.Load() && should(JournalAppend, plan.JournalAppendEvery) {
		return ErrJournalAppend
	}
	return nil
}

// JournalFsyncErr returns ErrJournalFsync when the JournalFsync site fires,
// nil otherwise. Idle cost: one atomic load.
func JournalFsyncErr() error {
	if armed.Load() && should(JournalFsync, plan.JournalFsyncEvery) {
		return ErrJournalFsync
	}
	return nil
}

// ShouldTearJournal reports whether the current journal append must be torn
// mid-record, as if the process died between the two halves of the write.
// Idle cost: one atomic load.
func ShouldTearJournal() bool {
	return armed.Load() && should(JournalTear, plan.JournalTearEvery)
}

// SnapshotRenameErr returns ErrSnapshotRename when the SnapshotRename site
// fires, nil otherwise. Idle cost: one atomic load.
func SnapshotRenameErr() error {
	if armed.Load() && should(SnapshotRename, plan.SnapshotRenameEvery) {
		return ErrSnapshotRename
	}
	return nil
}

// HandlerLatencyDelay returns the latency to inject into the current gated
// HTTP request: the plan's HandlerDelay when the HandlerLatency site fires,
// zero otherwise. Idle cost: one atomic load.
func HandlerLatencyDelay() time.Duration {
	if armed.Load() && should(HandlerLatency, plan.HandlerLatencyEvery) {
		return plan.HandlerDelay
	}
	return 0
}

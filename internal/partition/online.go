package partition

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/bounds"
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/task"
)

// Online is the incremental admission engine behind the admission-control
// service (internal/admit): one virtual cluster of M processors that admits
// and releases tasks one at a time instead of partitioning a whole set. It
// is the churn-shaped counterpart of the batch algorithms above — the same
// exact RTA admission (or the parametric utilization threshold the paper's
// §I criticizes), run against per-processor rta.ProcState mirrors so each
// decision reuses the warm-start caches, and ProcState.Remove's invalidation
// keeps those caches sound when tasks depart.
//
// Priorities are deadline-monotonic: the priority key of an admitted task is
// its effective deadline (ties broken FIFO by the mirror's insertion order),
// which coincides with rate-monotonic order on the paper's implicit-deadline
// model. Tasks are placed whole — the online service does not split; a
// rejected task leaves no residue.
//
// An Online is not safe for concurrent use; the admission service serializes
// operations per cluster.
type Online struct {
	m         int
	policy    string
	surcharge task.Time

	states []rta.ProcState
	procs  [][]onlineResident // shadows states' priority positions exactly
	util   []float64          // util[q]: procs[q]'s raw utilization, summed in priority order
	loc    map[uint64]int     // handle → hosting processor
	nextH  uint64

	order []int // fitOrder scratch
}

// Online placement policies. The RTA policies are FirstFitRTA and
// WorstFitRTA run one task at a time through the same fitOrder and
// fitsWhole (FuzzOnlineBatchTwin states the twin and its rta-wf tie
// restriction). The threshold policy admits iff the processor's surcharged
// utilization stays under the Liu & Layland bound Θ(n+1) — the
// parametric-bound baseline, implicit deadlines only.
const (
	OnlineRTAFirstFit = "rta-ff"    // processors in index order
	OnlineRTAWorstFit = "rta-wf"    // processors by ascending utilization
	OnlineThreshold   = "threshold" // L&L utilization threshold, first fit
)

// cOnlineUtilSkips counts processors an RTA admission refused by
// utilization alone (OverUtilized on the cached sum), with neither the
// prefilter nor the exact probe run.
var cOnlineUtilSkips = obs.NewCounter("partition.online.util_skips")

type onlineResident struct {
	handle uint64
	sub    task.Subtask // raw C; the mirror carries the surcharge
}

// Placement reports a successful online admission.
type Placement struct {
	// Handle identifies the admitted task for a later Remove. Never zero.
	Handle uint64
	// Proc is the hosting processor.
	Proc int
	// Response is the admitted task's own RTA fixed point on its processor
	// at admission time (informational; for the threshold policy it is
	// computed the same way even though the admission didn't run RTA).
	Response task.Time
}

// errClusterFull refuses a resident past task.MaxTasks: a cluster is one
// task set of the model's domain (DESIGN.md §13).
var errClusterFull = fmt.Errorf("cluster already holds MaxTasks = %d residents: %w", task.MaxTasks, task.ErrDomain)

// Rejection is a typed online admission rejection, reusing the batch
// taxonomy: the cause names the admission test that fired.
type Rejection struct {
	Cause  Cause
	Reason string
}

// Error implements error.
func (r *Rejection) Error() string { return r.Reason }

// NewOnline creates an empty cluster of m processors under the given policy
// ("" defaults to rta-ff) and per-task analysis surcharge.
func NewOnline(m int, policy string, surcharge task.Time) (*Online, error) {
	switch policy {
	case "":
		policy = OnlineRTAFirstFit
	case OnlineRTAFirstFit, OnlineRTAWorstFit, OnlineThreshold:
	default:
		return nil, fmt.Errorf("partition: unknown online policy %q (want rta-ff, rta-wf or threshold)", policy)
	}
	if m <= 0 {
		return nil, fmt.Errorf("partition: online cluster needs at least one processor, got %d", m)
	}
	if m > task.MaxTasks {
		// A cluster holds at most MaxTasks residents, so more processors
		// than that can never all be in use; the bound also caps what one
		// create request can make the engine allocate.
		return nil, fmt.Errorf("partition: online cluster of %d processors exceeds MaxTasks %d: %w", m, task.MaxTasks, task.ErrDomain)
	}
	if surcharge < 0 {
		return nil, fmt.Errorf("partition: negative surcharge %d", surcharge)
	}
	if surcharge > task.MaxTime {
		return nil, fmt.Errorf("partition: surcharge %d exceeds MaxTime %d: %w", surcharge, task.MaxTime, task.ErrDomain)
	}
	return &Online{
		m:         m,
		policy:    policy,
		surcharge: surcharge,
		states:    rta.NewProcStates(m, surcharge),
		procs:     make([][]onlineResident, m),
		util:      make([]float64, m),
		loc:       make(map[uint64]int),
	}, nil
}

// M returns the cluster's processor count.
func (o *Online) M() int { return o.m }

// Policy returns the cluster's placement policy name.
func (o *Online) Policy() string { return o.policy }

// Surcharge returns the per-task analysis surcharge.
func (o *Online) Surcharge() task.Time { return o.surcharge }

// Len returns the number of resident tasks across all processors.
func (o *Online) Len() int { return len(o.loc) }

// ProcLen returns the number of residents on processor q.
func (o *Online) ProcLen(q int) int { return len(o.procs[q]) }

// Utilization returns processor q's assigned raw utilization (no
// surcharge), summed in priority order for determinism. The sum is cached
// and recomputed from the residents on every change to q (resum), never
// adjusted incrementally, so it is bit-identical to a fresh sum and float
// error cannot build up over a long-lived cluster.
func (o *Online) Utilization(q int) float64 { return o.util[q] }

// resum recomputes processor q's cached utilization after its residents
// changed.
func (o *Online) resum(q int) {
	u := 0.0
	for _, r := range o.procs[q] {
		u += r.sub.Utilization()
	}
	o.util[q] = u
}

// SurchargedUtilization is the threshold policy's view of processor q:
// every resident's C inflated by the surcharge.
func (o *Online) SurchargedUtilization(q int) float64 {
	u := 0.0
	for _, r := range o.procs[q] {
		u += float64(r.sub.C+o.surcharge) / float64(r.sub.T)
	}
	return u
}

// ResidentAt returns the resident at priority position pos of processor q
// (raw C).
func (o *Online) ResidentAt(q, pos int) task.Subtask { return o.procs[q][pos].sub }

// ProbeRTA recomputes the exact-RTA admission of t on processor q over the
// processor's analysis mirror, for rejection evidence: the candidate's own cold-start
// fixed point against its deadline and the first resident it would break
// (rta.ProcState.ProbeAt). Execution times in the probe carry the
// surcharge; a Blocked position indexes ResidentAt.
func (o *Online) ProbeRTA(q int, t task.Task) rta.Probe {
	d := t.Deadline()
	return o.states[q].ProbeAt(int(d), t.C, t.T, d)
}

// Admit attempts to place t whole on some processor under the cluster's
// policy. On success it returns the placement; on failure the error is a
// *Rejection carrying the partition.Cause that names the violated test (and
// ticks the partition.reject.* counter, like every batch rejection).
func (o *Online) Admit(t task.Task) (Placement, error) {
	err := t.Validate()
	if err == nil && len(o.loc) >= task.MaxTasks {
		err = errClusterFull
	}
	if err != nil {
		return o.reject(CauseInvalidInput, err.Error())
	}
	s := o.surcharge
	if t.C+s > t.T {
		return o.reject(CauseSurchargeInfeasible,
			fmt.Sprintf("%s cannot meet its deadline under surcharge %d even alone", t, s))
	}
	d := t.Deadline()
	prio := int(d) // deadline-monotonic priority key, FIFO tie-break

	if o.policy == OnlineThreshold {
		if !t.Implicit() {
			return o.reject(CauseModelMismatch,
				"threshold admission requires implicit deadlines (D = T); use an rta-* policy for constrained deadlines")
		}
		u := float64(t.C+s) / float64(t.T)
		for q := 0; q < o.m; q++ {
			if o.SurchargedUtilization(q)+u <= bounds.LL(len(o.procs[q])+1)-utilEps {
				return o.place(q, prio, t), nil
			}
		}
		return o.reject(CauseThresholdExhausted,
			fmt.Sprintf("no processor has %.4f utilization room under the L&L threshold for %s", u, t))
	}

	for _, q := range fitOrder(&o.order, o.m, o.policy == OnlineRTAWorstFit, o.Utilization) {
		ok, by := fitsWhole(&o.states[q], o.util[q], prio, t.C, t.T, d)
		if ok {
			return o.place(q, prio, t), nil
		}
		if by == byUtilization {
			cOnlineUtilSkips.Inc()
		}
	}
	return o.reject(CauseRTADeadlineMiss,
		fmt.Sprintf("exact RTA proves a deadline miss for %s on every processor", t))
}

func (o *Online) place(q, prio int, t task.Task) Placement {
	d := t.Deadline()
	sub := task.Subtask{TaskIndex: prio, Part: 1, C: t.C, T: t.T, Deadline: d, Offset: t.T - d, Tail: true}
	o.nextH++
	h := o.nextH
	pos := o.install(q, h, sub)
	r, _ := o.states[q].ResponseAt(pos, d)
	return Placement{Handle: h, Proc: q, Response: r}
}

// install splices an already-admitted resident into processor q at its
// priority position, mirroring it into the warm-start state. It is the
// commit half of place, shared with RestoreResident so that snapshot
// recovery rebuilds exactly the structures an admission would have built.
func (o *Online) install(q int, h uint64, sub task.Subtask) int {
	pos := o.states[q].Insert(sub)
	o.procs[q] = append(o.procs[q], onlineResident{})
	copy(o.procs[q][pos+1:], o.procs[q][pos:])
	o.procs[q][pos] = onlineResident{handle: h, sub: sub}
	o.resum(q)
	o.loc[h] = q
	return pos
}

func (o *Online) reject(cause Cause, reason string) (Placement, error) {
	countReject(cause)
	return Placement{}, &Rejection{Cause: cause, Reason: reason}
}

// ResidentInfo is one resident task in an Online state snapshot: its
// handle, hosting processor and the paper-model parameters needed to
// reinstate it with RestoreResident. D is the effective (constrained)
// deadline — implicit-deadline residents carry D = T.
type ResidentInfo struct {
	Handle uint64
	Proc   int
	C      task.Time
	T      task.Time
	D      task.Time
}

// ResidentsSnapshot returns every resident of the cluster in handle
// (admission) order. Because priority ties break FIFO by insertion order
// and surviving residents were inserted in handle order, replaying the
// returned slice through RestoreResident on an empty twin reproduces the
// cluster's exact per-processor priority layout.
func (o *Online) ResidentsSnapshot() []ResidentInfo {
	out := make([]ResidentInfo, 0, len(o.loc))
	for q := 0; q < o.m; q++ {
		for _, r := range o.procs[q] {
			out = append(out, ResidentInfo{Handle: r.handle, Proc: q, C: r.sub.C, T: r.sub.T, D: r.sub.Deadline})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}

// RestoreResident reinstates a previously admitted resident on its recorded
// processor without re-running the admission test — snapshot recovery
// trusts the placement it persisted and rebuilds the engine structures
// directly (re-deciding placement would be unsound: the original decision
// was made against intermediate states that included since-removed tasks).
// Residents must be restored in ascending handle order so FIFO priority
// ties land exactly as the live cluster had them.
func (o *Online) RestoreResident(proc int, handle uint64, c, t, d task.Time) error {
	switch {
	case proc < 0 || proc >= o.m:
		return fmt.Errorf("partition: restore: processor %d out of range [0,%d)", proc, o.m)
	case handle == 0:
		return fmt.Errorf("partition: restore: zero handle")
	case len(o.loc) >= task.MaxTasks:
		return fmt.Errorf("partition: restore: %w", errClusterFull)
	}
	sub := task.Subtask{TaskIndex: int(d), Part: 1, C: c, T: t, Deadline: d, Offset: t - d, Tail: true}
	if err := sub.Validate(); err != nil {
		return fmt.Errorf("partition: restore: invalid resident (c=%d t=%d d=%d): %w", c, t, d, err)
	}
	if c+o.surcharge > d {
		return fmt.Errorf("partition: restore: resident %d infeasible under surcharge %d", handle, o.surcharge)
	}
	if _, taken := o.loc[handle]; taken {
		return fmt.Errorf("partition: restore: duplicate handle %d", handle)
	}
	o.install(proc, handle, sub)
	if handle > o.nextH {
		o.nextH = handle
	}
	return nil
}

// Has reports whether handle names a resident task.
func (o *Online) Has(handle uint64) bool {
	_, ok := o.loc[handle]
	return ok
}

// UndoAdmit rolls back the cluster's most recent successful Admit — the
// admission service uses it when the write-ahead journal refuses the
// record, so an acceptance that cannot be made durable is never visible.
// Only the latest acceptance can be undone (its handle must still be the
// handle counter's current value); the handle counter rolls back too, so
// the cluster is canonically byte-identical to its pre-admission state.
func (o *Online) UndoAdmit(handle uint64) error {
	if handle == 0 || handle != o.nextH {
		return fmt.Errorf("partition: undo: handle %d is not the most recent admission (counter %d)", handle, o.nextH)
	}
	if !o.Remove(handle) {
		return fmt.Errorf("partition: undo: handle %d is not resident", handle)
	}
	o.nextH--
	return nil
}

// HandleSeq returns the admission-handle counter: the handle the most
// recent acceptance was assigned (0 before any acceptance).
func (o *Online) HandleSeq() uint64 { return o.nextH }

// SetHandleSeq restores the admission-handle counter from a snapshot so
// replayed post-snapshot admissions are assigned the same handles the live
// cluster handed out. It refuses to move the counter backwards past an
// already-restored handle.
func (o *Online) SetHandleSeq(h uint64) error {
	if h < o.nextH {
		return fmt.Errorf("partition: handle counter %d below restored maximum %d", h, o.nextH)
	}
	o.nextH = h
	return nil
}

// AppendCanonical appends a canonical byte serialization of the cluster's
// durable state to b: configuration, handle counter, and every resident
// (handle, surcharge-free C, T, effective deadline) in per-processor
// priority order with explicit processor boundaries. Two Online values
// with equal canonical bytes are observationally equivalent for every
// future Admit/Remove sequence — placement, handles and verdicts all
// derive from exactly the serialized state. Volatile warm-start cache
// contents are deliberately excluded: they are lower bounds that only
// affect analysis cost, never decisions (DESIGN.md §7).
func (o *Online) AppendCanonical(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(o.m))
	b = append(b, o.policy...)
	b = append(b, 0x00)
	b = binary.AppendVarint(b, o.surcharge)
	b = binary.AppendUvarint(b, o.nextH)
	for q := 0; q < o.m; q++ {
		for _, r := range o.procs[q] {
			b = binary.AppendUvarint(b, r.handle)
			b = binary.AppendVarint(b, r.sub.C)
			b = binary.AppendVarint(b, r.sub.T)
			b = binary.AppendVarint(b, r.sub.Deadline)
		}
		b = append(b, 0xFF)
	}
	return b
}

// Remove releases the task identified by handle, invalidating exactly the
// warm-start cache entries the departure makes stale (ProcState.Remove).
// It reports whether the handle was resident.
func (o *Online) Remove(handle uint64) bool {
	q, ok := o.loc[handle]
	if !ok {
		return false
	}
	list := o.procs[q]
	pos := 0
	for pos < len(list) && list[pos].handle != handle {
		pos++
	}
	o.states[q].Remove(pos)
	o.procs[q] = append(list[:pos], list[pos+1:]...)
	o.resum(q)
	delete(o.loc, handle)
	return true
}

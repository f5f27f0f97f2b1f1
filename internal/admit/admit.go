// Package admit is the multi-tenant online admission-control service over
// the partition.Online engine (ROADMAP item 1): clients create named
// virtual clusters (M processors, a placement policy, an optional analysis
// surcharge) and then admit and remove tasks one at a time, getting back a
// placement or a typed rejection that reuses the partition.Cause taxonomy
// and the internal/explain evidence vocabulary.
//
// Concurrency model: clusters live in a fixed array of RWMutex-striped
// shards keyed by an FNV hash of the cluster name, so lookups on the hot
// admit path take only a read lock on one stripe. Each cluster serializes
// its own engine operations behind a per-cluster mutex (the Online engine
// is single-writer by design); per-tenant statistics are plain atomics,
// readable lock-free while admissions are in flight.
//
// Every admission, a repeated rejection included, is answered by the
// engine: a refusal costs a few microseconds of exact RTA, so no verdict
// is cached.
package admit

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bounds"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
)

// Service-wide instrumentation (no-ops unless obs.SetEnabled), aggregated
// across every tenant; the per-cluster Stats atomics are always live.
var (
	cRequests        = obs.NewCounter("admit.requests")
	cAccepted        = obs.NewCounter("admit.accepted")
	cRejected        = obs.NewCounter("admit.rejected")
	cRemoved         = obs.NewCounter("admit.removed")
	cClustersCreated = obs.NewCounter("admit.clusters_created")
	cClustersDeleted = obs.NewCounter("admit.clusters_deleted")
)

// cRejectByCause breaks admit.rejected down by partition cause
// (admit.reject.<cause>), indexed by the engine's typed Cause and built
// once at init over the closed taxonomy, so attributing a rejection is one
// slice index: no registry mutex, no allocation.
var cRejectByCause = func() []*obs.Counter {
	causes := partition.RejectionCauses()
	cs := make([]*obs.Counter, causes[len(causes)-1]+1)
	for _, c := range causes {
		cs[c] = obs.NewCounter("admit.reject." + c.String())
	}
	return cs
}()

// ErrExists is returned by Create when the cluster name is already taken.
var ErrExists = errors.New("admit: cluster name already taken")

// ErrDeleted is returned by Cluster.Admit and Cluster.Remove when the
// cluster was deleted after the caller looked it up: a stale *Cluster can
// never mutate (or journal) again once its delete record is durable. The
// HTTP layer maps it to 404, same as a lookup that missed.
var ErrDeleted = errors.New("admit: cluster deleted")

// Service is the sharded cluster registry, optionally backed by a
// write-ahead journal (AttachJournal) that makes every mutation durable.
type Service struct {
	shards []shard
	j      *Journal    // nil when the service is not journaled
	gate   *Gate       // nil when admission is ungated
	trace  TraceConfig // per-request sinks; zero value traces IDs only
}

type shard struct {
	mu       sync.RWMutex
	clusters map[string]*Cluster
}

// NewService creates a registry striped over the given number of shards
// (clamped to [1, 256]; pass 0 for the default of 16).
func NewService(shards int) *Service {
	switch {
	case shards <= 0:
		shards = 16
	case shards > 256:
		shards = 256
	}
	s := &Service{shards: make([]shard, shards)}
	for i := range s.shards {
		s.shards[i].clusters = make(map[string]*Cluster)
	}
	return s
}

func (s *Service) shardIndex(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(s.shards)))
}

func (s *Service) shardFor(name string) *shard {
	return &s.shards[s.shardIndex(name)]
}

// Create registers a new cluster. It fails if the name is empty or taken,
// the engine parameters are invalid, or (on a journaled service) the
// creation could not be made durable. The context carries the request ID
// into the journal record (nil is fine for untraced callers).
func (s *Service) Create(ctx context.Context, name string, m int, policy string, surcharge task.Time) (*Cluster, error) {
	if name == "" {
		return nil, errors.New("admit: cluster name must not be empty")
	}
	eng, err := partition.NewOnline(m, policy, surcharge)
	if err != nil {
		return nil, err
	}
	c := &Cluster{name: name, eng: eng}
	idx := s.shardIndex(name)
	sh := &s.shards[idx]
	var jr *shardJournal
	if s.j != nil {
		c.j, c.jr = s.j, s.j.shards[idx]
		jr = c.jr
		jr.freeze.RLock()
		defer jr.freeze.RUnlock()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.clusters[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if jr != nil {
		// Journal before insert: a creation that cannot be made durable is
		// never visible.
		if err := jr.append(createRecord(name, m, policy, surcharge, RequestIDFrom(ctx)), &s.j.cfg); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		s.j.maybeKickSnapshot(jr)
	}
	sh.clusters[name] = c
	cClustersCreated.Inc()
	return c, nil
}

// Get returns the named cluster, if registered.
func (s *Service) Get(name string) (*Cluster, bool) {
	sh := s.shardFor(name)
	sh.mu.RLock()
	c, ok := sh.clusters[name]
	sh.mu.RUnlock()
	return c, ok
}

// Delete unregisters the named cluster, reporting whether it existed.
// Operations already inside the cluster's critical section finish first
// (their journal records precede the delete record); operations that
// looked the cluster up but had not yet entered it fail with ErrDeleted.
// On a journaled service a deletion that cannot be made durable fails
// without unregistering anything. The context carries the request ID into
// the journal record.
func (s *Service) Delete(ctx context.Context, name string) (bool, error) {
	idx := s.shardIndex(name)
	sh := &s.shards[idx]
	var jr *shardJournal
	if s.j != nil {
		jr = s.j.shards[idx]
		jr.freeze.RLock()
		defer jr.freeze.RUnlock()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.clusters[name]
	if !ok {
		return false, nil
	}
	// Take the victim's own lock before journaling the delete: Admit and
	// Remove append their records under c.mu, so holding it here guarantees
	// no per-cluster record can land after the delete record (replay refuses
	// a journal that mutates a deleted cluster), and marking the cluster
	// deleted under the same lock turns every later Admit/Remove through a
	// stale *Cluster into ErrDeleted instead of a stray append.
	c.mu.Lock()
	if jr != nil {
		if err := jr.append(deleteRecord(name, RequestIDFrom(ctx)), &s.j.cfg); err != nil {
			c.mu.Unlock()
			return false, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		s.j.maybeKickSnapshot(jr)
	}
	c.deleted = true
	c.mu.Unlock()
	delete(sh.clusters, name)
	cClustersDeleted.Inc()
	return true, nil
}

// Names returns every registered cluster name, sorted.
func (s *Service) Names() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name := range sh.clusters {
			out = append(out, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Stats is a cluster's per-tenant operation counters. All fields are
// written with atomics and may be read lock-free via StatsSnapshot.
type Stats struct {
	Requests atomic.Int64
	Accepted atomic.Int64
	Rejected atomic.Int64
	Removed  atomic.Int64
}

// StatsSnapshot is a point-in-time copy of a cluster's Stats.
type StatsSnapshot struct {
	Requests int64 `json:"requests"`
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Removed  int64 `json:"removed"`
	// CacheHits is always 0: no verdict is cached. The field keeps the
	// status and snapshot JSON in their published shape.
	CacheHits int64 `json:"cacheHits"`
}

// Cluster is one tenant's virtual cluster: the engine and the tenant's
// stats.
type Cluster struct {
	name  string
	stats Stats

	// j/jr point at the service journal and this cluster's shard journal;
	// both nil on an unjournaled service.
	j  *Journal
	jr *shardJournal

	mu      sync.Mutex // serializes eng and deleted
	eng     *partition.Online
	deleted bool // set by Service.Delete; mutations through stale handles fail
}

// Name returns the cluster's registered name.
func (c *Cluster) Name() string { return c.name }

// StatsSnapshot reads the per-tenant counters without taking the cluster
// lock.
func (c *Cluster) StatsSnapshot() StatsSnapshot {
	return StatsSnapshot{
		Requests: c.stats.Requests.Load(),
		Accepted: c.stats.Accepted.Load(),
		Rejected: c.stats.Rejected.Load(),
		Removed:  c.stats.Removed.Load(),
	}
}

// ProcEvidence is one processor's rejection evidence: its load at the
// moment of rejection plus the recomputed admission probe in the cluster
// policy's own vocabulary (internal/explain).
type ProcEvidence struct {
	Proc        int                   `json:"proc"`
	Utilization float64               `json:"u"`
	Residents   int                   `json:"residents"`
	Detail      *explain.ProcEvidence `json:"detail,omitempty"`
}

// Result is the outcome of one admission attempt. On acceptance, Handle
// names the placement for a later Remove; on rejection, Cause/Reason carry
// the partition taxonomy and Evidence the per-processor probes (analyzed
// rejections only — input errors carry none).
type Result struct {
	Accepted bool   `json:"accepted"`
	Handle   uint64 `json:"handle,omitempty"`
	Proc     int    `json:"proc"`
	Response int64  `json:"response,omitempty"`

	Cause       string         `json:"cause,omitempty"`
	CauseDetail string         `json:"causeDetail,omitempty"`
	Reason      string         `json:"reason,omitempty"`
	Evidence    []ProcEvidence `json:"evidence,omitempty"`
}

// Admit runs one admission attempt against the cluster. The context's
// deadline is honored at the serialization point: a request whose deadline
// expired while it waited for the cluster lock returns ctx.Err() without
// consulting the engine. On a journaled service an acceptance that cannot
// be journaled is rolled back and reported as ErrDurability — it never
// happened, durably or otherwise. A cluster concurrently deleted returns
// ErrDeleted. Both verdicts (accept and reject) return a nil error.
func (c *Cluster) Admit(ctx context.Context, t task.Task) (Result, error) {
	if c.jr != nil {
		c.jr.freeze.RLock()
		defer c.jr.freeze.RUnlock()
	}
	// Count the request inside the frozen section: a snapshot cut either
	// sees both this increment and the op's journal record or neither, so
	// replay's one-request-per-acceptance accounting never double-counts.
	cRequests.Inc()
	c.stats.Requests.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deleted {
		return Result{}, ErrDeleted
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	pl, err := c.eng.Admit(t)
	if err == nil {
		if c.jr != nil {
			if jerr := c.jr.append(admitRecord(c.name, t, pl, RequestIDFrom(ctx)), &c.j.cfg); jerr != nil {
				// The engine accepted but the journal did not: undo the
				// placement so the acknowledged state and the durable state
				// agree that this admission never happened.
				if uerr := c.eng.UndoAdmit(pl.Handle); uerr != nil {
					panic("admit: cannot undo unjournaled admission: " + uerr.Error())
				}
				return Result{}, fmt.Errorf("%w: %v", ErrDurability, jerr)
			}
			c.j.maybeKickSnapshot(c.jr)
		}
		cAccepted.Inc()
		c.stats.Accepted.Add(1)
		return Result{Accepted: true, Handle: pl.Handle, Proc: pl.Proc, Response: pl.Response}, nil
	}
	var rej *partition.Rejection
	if !errors.As(err, &rej) {
		// The engine only returns *Rejection; anything else is a bug.
		panic("admit: online engine returned an untyped error: " + err.Error())
	}
	cRejected.Inc()
	cRejectByCause[rej.Cause].Inc()
	c.stats.Rejected.Add(1)
	return Result{
		Proc:        -1,
		Cause:       rej.Cause.String(),
		CauseDetail: rej.Cause.Describe(),
		Reason:      rej.Reason,
		Evidence:    c.evidence(rej.Cause, t),
	}, nil
}

// Remove releases a previously admitted task, reporting whether the handle
// was resident. The context's deadline is honored at the serialization
// point, exactly as in Admit: a removal whose deadline expired while it
// waited for the cluster lock returns ctx.Err() without touching the
// engine. On a journaled service the removal is journaled before the
// engine applies it; a removal that cannot be made durable fails with
// ErrDurability and leaves the task resident. A cluster concurrently
// deleted returns ErrDeleted.
func (c *Cluster) Remove(ctx context.Context, handle uint64) (bool, error) {
	if c.jr != nil {
		c.jr.freeze.RLock()
		defer c.jr.freeze.RUnlock()
	}
	c.mu.Lock()
	if c.deleted {
		c.mu.Unlock()
		return false, ErrDeleted
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return false, err
		}
	}
	if !c.eng.Has(handle) {
		c.mu.Unlock()
		return false, nil
	}
	if c.jr != nil {
		if err := c.jr.append(removeRecord(c.name, handle, RequestIDFrom(ctx)), &c.j.cfg); err != nil {
			c.mu.Unlock()
			return false, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		c.j.maybeKickSnapshot(c.jr)
	}
	ok := c.eng.Remove(handle)
	c.mu.Unlock()
	if !ok {
		panic("admit: resident handle vanished under the cluster lock")
	}
	cRemoved.Inc()
	c.stats.Removed.Add(1)
	return true, nil
}

// restoreStats reinstates a snapshotted counter state (recovery only).
func (c *Cluster) restoreStats(st StatsSnapshot) {
	c.stats.Requests.Store(st.Requests)
	c.stats.Accepted.Store(st.Accepted)
	c.stats.Rejected.Store(st.Rejected)
	c.stats.Removed.Store(st.Removed)
}

// appendCanonical appends the cluster's canonical engine state (see
// Online.AppendCanonical: byte equality implies observational equivalence
// for every future operation sequence).
func (c *Cluster) appendCanonical(b []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.AppendCanonical(b)
}

// CanonicalState serializes the whole registry — every cluster's name and
// canonical engine state, in sorted name order. Two services with equal
// CanonicalState are observationally equivalent; the recovery tests and
// the crash-recovery smoke compare digests of exactly this.
func (s *Service) CanonicalState() []byte {
	var b []byte
	for _, name := range s.Names() {
		if c, ok := s.Get(name); ok {
			b = append(b, name...)
			b = append(b, 0x00)
			b = c.appendCanonical(b)
		}
	}
	return b
}

// evidence assembles the per-processor rejection probes for analyzed
// rejections; input-shaped causes (invalid input, surcharge infeasibility,
// model mismatch) get none — no processor was consulted. Each processor's
// detail names the test that refused it there. A processor the candidate
// would push past U = 1 (partition.OverUtilized) was refused without RTA, and
// its detail is that utilization room (explain.ProbeUtilization). Every
// other processor gets an RTA probe on the engine's own mirror
// (Online.ProbeRTA), cold-started so every response equals a from-scratch
// analysis of the surcharged resident list (FuzzEvidenceVsProbeRTA holds it
// to a scalar oracle kept in the test).
// Each value kind lives in one backing slice, so a rejection allocates the
// same handful of times at any M.
func (c *Cluster) evidence(cause partition.Cause, t task.Task) []ProcEvidence {
	switch cause {
	case partition.CauseThresholdExhausted, partition.CauseRTADeadlineMiss:
	default:
		return nil
	}
	m := c.eng.M()
	out := make([]ProcEvidence, m)
	details := make([]explain.ProcEvidence, m)
	var blocked []explain.BlockedResident
	if cause == partition.CauseRTADeadlineMiss {
		blocked = make([]explain.BlockedResident, m)
	}
	s := c.eng.Surcharge()
	u := t.Utilization()
	for q := range out {
		n := c.eng.ProcLen(q)
		det := &details[q]
		switch {
		case cause == partition.CauseThresholdExhausted:
			*det = *explain.ProbeThreshold(c.eng.SurchargedUtilization(q), bounds.LL(n+1))
		case partition.OverUtilized(c.eng.Utilization(q), u):
			*det = *explain.ProbeUtilization(c.eng.Utilization(q))
		default:
			p := c.eng.ProbeRTA(q, t)
			det.OwnResponse, det.OwnVerdict = p.OwnResponse, p.OwnVerdict.String()
			if p.Blocked >= 0 {
				sub := c.eng.ResidentAt(q, p.Blocked)
				blocked[q] = explain.BlockedResident{
					Task: sub.TaskIndex, Part: sub.Part,
					C: sub.C + s, Deadline: sub.Deadline,
					Response: p.BlockedResponse, Verdict: p.BlockedVerdict.String(),
				}
				det.Blocked = &blocked[q]
			}
		}
		out[q] = ProcEvidence{Proc: q, Utilization: c.eng.Utilization(q), Residents: n, Detail: det}
	}
	return out
}

// ProcStatus is one processor's live load.
type ProcStatus struct {
	Proc        int     `json:"proc"`
	Residents   int     `json:"residents"`
	Utilization float64 `json:"u"`
}

// Status is a cluster's live state snapshot.
type Status struct {
	Name      string        `json:"name"`
	M         int           `json:"m"`
	Policy    string        `json:"policy"`
	Surcharge int64         `json:"surcharge"`
	Tasks     int           `json:"tasks"`
	Procs     []ProcStatus  `json:"procs"`
	Stats     StatsSnapshot `json:"stats"`
}

// Status snapshots the cluster's configuration and per-processor load.
func (c *Cluster) Status() Status {
	c.mu.Lock()
	st := Status{
		Name:      c.name,
		M:         c.eng.M(),
		Policy:    c.eng.Policy(),
		Surcharge: c.eng.Surcharge(),
		Tasks:     c.eng.Len(),
		Procs:     make([]ProcStatus, c.eng.M()),
	}
	for q := range st.Procs {
		st.Procs[q] = ProcStatus{Proc: q, Residents: c.eng.ProcLen(q), Utilization: c.eng.Utilization(q)}
	}
	c.mu.Unlock()
	st.Stats = c.StatsSnapshot()
	return st
}

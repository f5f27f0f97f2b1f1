package admit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
)

// Durability layer (DESIGN.md §14): every state mutation — cluster
// create/delete, accepted admission, removal — is appended to a per-shard
// write-ahead journal (JSONL, schema-versioned like obs.RunEvent) before it
// is acknowledged, and each shard periodically folds its journal into an
// atomic snapshot (temp file + fsync + rename + directory fsync, see
// writeFileAtomic). Startup recovery loads the
// snapshot, replays the journal tail through the real engine, and tolerates
// exactly one torn record at the tail (a crash mid-append); anything else
// malformed refuses to start rather than serve silently wrong state.
//
// Write-ahead discipline per op:
//
//   - create/delete/remove: the record is appended (and fsynced per
//     policy) before the registry or engine is touched — an append failure
//     leaves state untouched and the client gets a durability error.
//   - admit: the engine decides first (the record must carry the assigned
//     handle and processor), then the record is appended; an append
//     failure rolls the acceptance back via Online.UndoAdmit, so an
//     admission that cannot be made durable is never acknowledged and
//     never visible — canonically, it never happened.
//
// Rejections are deliberately not journaled: they do not mutate state, and
// under retry storms they are the overwhelmingly common case (the memo
// cache exists for the same reason). The cost is that the volatile traffic
// counters (requests, rejected, cacheHits) recovered after a crash only
// reflect the last snapshot plus replayed acceptances; the durable
// counters (accepted, removed) and the entire engine state are exact.
//
// Lock order (outermost first): shardJournal.freeze → Service shard map →
// Cluster.mu → shardJournal.mu. Mutating ops hold freeze as readers for
// their whole critical section; the snapshotter takes it as a writer, so a
// snapshot is a quiescent, shard-consistent cut — which is what makes the
// "replay records with seq > snapshot seq" recovery rule sound.
const (
	// walSchemaVersion stamps every journal record; recovery refuses other
	// versions. Bump on incompatible record-shape changes.
	walSchemaVersion = 1
	// snapshotSchemaVersion stamps shard snapshot files.
	snapshotSchemaVersion = 1
	// metaSchemaVersion stamps the data directory's meta file.
	metaSchemaVersion = 1
)

// Journal-layer instrumentation (no-ops unless obs.SetEnabled).
var (
	cJournalAppends    = obs.NewCounter("admit.journal.appends")
	cJournalAppendErrs = obs.NewCounter("admit.journal.append_errors")
	cJournalFsyncs     = obs.NewCounter("admit.journal.fsyncs")
	cJournalFsyncErrs  = obs.NewCounter("admit.journal.fsync_errors")
	cJournalSnapshots  = obs.NewCounter("admit.journal.snapshots")
	cJournalSnapErrs   = obs.NewCounter("admit.journal.snapshot_errors")
	cJournalReplayed   = obs.NewCounter("admit.journal.replayed_records")
	cJournalTornTails  = obs.NewCounter("admit.journal.torn_tails")
)

// Durability latency/size distributions (DESIGN.md §15). Bounds in µs for
// the latency histograms: appends are a buffered write (single-digit µs
// warm), fsyncs are the device round-trip (hundreds of µs to tens of ms on
// spinning or contended storage), snapshots serialize whole shards.
var (
	hJournalAppendUS = obs.NewHistogram("admit.journal.append_us",
		1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)
	hJournalFsyncUS = obs.NewHistogram("admit.journal.fsync_us",
		10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000)
	hJournalFlushBatch = obs.NewHistogram("admit.journal.flush_batch",
		1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
	hJournalSnapshotUS = obs.NewHistogram("admit.journal.snapshot_us",
		50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000)
	hJournalSnapFolds = obs.NewHistogram("admit.journal.snapshot_fold_records",
		1, 16, 64, 256, 1024, 4096, 16384, 65536)
)

// ErrDurability wraps journal failures surfaced to clients: the requested
// mutation was not applied because it could not be made durable. The HTTP
// layer maps it to 503 Service Unavailable.
var ErrDurability = errors.New("admit: durability failure")

// FsyncPolicy selects when journal appends are flushed to stable storage.
type FsyncPolicy int8

const (
	// FsyncAlways fsyncs every record before the op is acknowledged: an
	// acknowledged mutation survives any crash.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch group-commits: a background flusher fsyncs dirty journals
	// every FsyncInterval, bounding data loss to the interval.
	FsyncBatch
	// FsyncOff never fsyncs; durability is whatever the OS page cache
	// provides. Survives process crashes (the data is in the kernel), not
	// power loss.
	FsyncOff
)

// ParseFsyncPolicy parses the -fsync flag vocabulary.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("admit: unknown fsync policy %q (want always, batch or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("fsync(%d)", int8(p))
	}
}

// JournalConfig configures the durability layer.
type JournalConfig struct {
	// Dir is the data directory holding meta.json plus one .wal and .snap
	// file per registry shard. Created if missing.
	Dir string
	// Fsync is the append flush policy.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncBatch group-commit period (also the
	// snapshot-trigger poll period). Zero means 5ms.
	FsyncInterval time.Duration
	// SnapshotEvery folds a shard's journal into a snapshot after this many
	// appended records. Zero means 4096; negative disables periodic
	// snapshots (Close still writes a final one).
	SnapshotEvery int
}

func (cfg *JournalConfig) fsyncInterval() time.Duration {
	if cfg.FsyncInterval <= 0 {
		return 5 * time.Millisecond
	}
	return cfg.FsyncInterval
}

func (cfg *JournalConfig) snapshotEvery() int {
	if cfg.SnapshotEvery == 0 {
		return 4096
	}
	return cfg.SnapshotEvery
}

// walRecord is one journal line. Field presence by op:
//
//	create: cluster, m, policy, surcharge
//	admit:  cluster, task (label), c, t, d (raw request deadline, 0 =
//	        implicit), h (assigned handle), p (assigned processor + 1, so
//	        omitempty never hides processor 0)
//	remove: cluster, h
//	delete: cluster
type walRecord struct {
	V       int    `json:"v"`
	Seq     uint64 `json:"seq"`
	Op      string `json:"op"`
	Cluster string `json:"cluster"`

	M         int    `json:"m,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Surcharge int64  `json:"surcharge,omitempty"`

	Task string `json:"task,omitempty"`
	C    int64  `json:"c,omitempty"`
	T    int64  `json:"t,omitempty"`
	D    int64  `json:"d,omitempty"`

	Handle uint64 `json:"h,omitempty"`
	Proc1  int    `json:"p,omitempty"`

	// RID is the request ID of the HTTP request that produced the record
	// (empty for untraced callers). Additive-optional — replay's plain
	// Unmarshal tolerates journals written before it existed, so it did not
	// bump walSchemaVersion. It is audit metadata only: replay ignores it.
	RID string `json:"rid,omitempty"`
}

const (
	opCreate = "create"
	opAdmit  = "admit"
	opRemove = "remove"
	opDelete = "delete"
)

// snapshotFile is one shard's atomic snapshot: a quiescent cut of every
// cluster on the shard at journal sequence Seq. Journal records with seq ≤
// Seq are already reflected and are skipped on replay.
type snapshotFile struct {
	Version  int           `json:"version"`
	Shard    int           `json:"shard"`
	Seq      uint64        `json:"seq"`
	Clusters []clusterSnap `json:"clusters"`
}

type clusterSnap struct {
	Name       string         `json:"name"`
	M          int            `json:"m"`
	Policy     string         `json:"policy"`
	Surcharge  int64          `json:"surcharge"`
	NextHandle uint64         `json:"nextHandle"`
	Stats      StatsSnapshot  `json:"stats"`
	Residents  []residentSnap `json:"residents"`
}

// residentSnap is one resident in handle (admission) order: the recorded
// placement is restored directly — re-deciding placement at recovery would
// be unsound, because the original decision saw intermediate states that
// included since-removed tasks.
type residentSnap struct {
	H uint64 `json:"h"`
	P int    `json:"p"`
	C int64  `json:"c"`
	T int64  `json:"t"`
	D int64  `json:"d"`
}

// metaFile guards the data directory against being reopened with a
// different shard count (the cluster→shard mapping is part of the layout).
type metaFile struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// Journal is the service's durability engine: one write-ahead log and
// snapshot pair per registry shard, plus the background flusher that
// group-commits fsyncs and folds journals into snapshots.
type Journal struct {
	cfg    JournalConfig
	svc    *Service
	shards []*shardJournal

	stop      chan struct{}
	kick      chan struct{}
	flusherWG sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

type shardJournal struct {
	idx int
	dir string

	// freeze is the shard's outermost lock: mutating ops hold it shared for
	// their whole critical section; the snapshotter holds it exclusively,
	// making every snapshot a quiescent consistent cut.
	freeze sync.RWMutex

	mu        sync.Mutex // file, rec, buf, enc, off, seq, sinceSnap, pending, dirty, broken
	file      *os.File
	rec       walRecord     // the record being appended (a field: encoding it does not allocate)
	buf       bytes.Buffer  // its encoding, reused across appends
	enc       *json.Encoder // into buf: exactly json.Marshal's bytes plus '\n'
	off       int64
	seq       uint64
	sinceSnap int
	pending   int // appends since the last successful fsync (batch size)
	dirty     bool
	broken    error
}

func walPath(dir string, i int) string  { return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", i)) }
func snapPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", i)) }

// errJournalBroken is the sticky state after an unrepairable append: the
// file tail is in an unknown state, so further appends would risk feeding
// recovery a mid-file corruption instead of a clean torn tail.
var errJournalBroken = errors.New("journal wedged by an unrepaired torn append; restart to recover")

// append writes one record (WAL line) and applies the fsync policy. On any
// failure the journal's visible state is unchanged: the sequence number is
// not consumed and the file is truncated back to the last good offset (if
// even that fails, the journal wedges and every later durable op errors
// until a restart recovers the tail).
func (sh *shardJournal) append(rec walRecord, cfg *JournalConfig) error {
	// Timing is gated on obs.On() so the disabled path never calls
	// time.Now() — the zero-overhead-when-off contract extends to clocks.
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.broken != nil {
		cJournalAppendErrs.Inc()
		return sh.broken
	}
	rec.V = walSchemaVersion
	rec.Seq = sh.seq + 1
	if sh.enc == nil {
		sh.enc = json.NewEncoder(&sh.buf)
	}
	sh.rec = rec
	sh.buf.Reset()
	if err := sh.enc.Encode(&sh.rec); err != nil {
		cJournalAppendErrs.Inc()
		return err
	}
	data := sh.buf.Bytes()
	if err := faultinject.JournalAppendErr(); err != nil {
		cJournalAppendErrs.Inc()
		return err
	}
	if faultinject.ShouldTearJournal() {
		// A crash mid-write: half the record reaches the file and the
		// process "dies" — in-process, that means the journal wedges until
		// the next startup truncates the torn tail.
		_, _ = sh.file.Write(data[:len(data)/2])
		sh.broken = errJournalBroken
		cJournalAppendErrs.Inc()
		return sh.broken
	}
	n, err := sh.file.Write(data)
	if err != nil {
		cJournalAppendErrs.Inc()
		sh.rewindLocked(sh.off)
		return err
	}
	sh.off += int64(n)
	sh.pending++
	if cfg.Fsync == FsyncAlways {
		if err := sh.fsyncLocked(); err != nil {
			// The record reached the file but its durability cannot be
			// confirmed; scrub it so recovery never replays an op the
			// client was told failed.
			cJournalAppendErrs.Inc()
			sh.pending--
			sh.rewindLocked(sh.off - int64(n))
			return err
		}
	} else {
		sh.dirty = true
	}
	sh.seq = rec.Seq
	sh.sinceSnap++
	cJournalAppends.Inc()
	if !t0.IsZero() {
		hJournalAppendUS.Observe(time.Since(t0).Microseconds())
	}
	return nil
}

// rewindLocked truncates the WAL back to off after a failed append. Caller
// holds sh.mu.
func (sh *shardJournal) rewindLocked(off int64) {
	if err := sh.file.Truncate(off); err != nil {
		sh.broken = fmt.Errorf("journal tail unrepairable after failed append: %w", err)
		return
	}
	if _, err := sh.file.Seek(off, io.SeekStart); err != nil {
		sh.broken = fmt.Errorf("journal tail unrepairable after failed append: %w", err)
		return
	}
	sh.off = off
}

// fsyncLocked flushes the WAL file, recording the sync latency and how many
// appends the sync made durable (the group-commit batch size; always 1
// under FsyncAlways). Caller holds sh.mu.
func (sh *shardJournal) fsyncLocked() error {
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	if err := faultinject.JournalFsyncErr(); err != nil {
		cJournalFsyncErrs.Inc()
		return err
	}
	if err := sh.file.Sync(); err != nil {
		cJournalFsyncErrs.Inc()
		return err
	}
	cJournalFsyncs.Inc()
	if !t0.IsZero() {
		hJournalFsyncUS.Observe(time.Since(t0).Microseconds())
		hJournalFlushBatch.Observe(int64(sh.pending))
	}
	sh.pending = 0
	sh.dirty = false
	return nil
}

// record builders.

func createRecord(name string, m int, policy string, surcharge task.Time, rid string) walRecord {
	return walRecord{Op: opCreate, Cluster: name, M: m, Policy: policy, Surcharge: surcharge, RID: rid}
}

func admitRecord(cluster string, t task.Task, pl partition.Placement, rid string) walRecord {
	return walRecord{Op: opAdmit, Cluster: cluster, Task: t.Name, C: t.C, T: t.T, D: t.D,
		Handle: pl.Handle, Proc1: pl.Proc + 1, RID: rid}
}

func removeRecord(cluster string, handle uint64, rid string) walRecord {
	return walRecord{Op: opRemove, Cluster: cluster, Handle: handle, RID: rid}
}

func deleteRecord(cluster string, rid string) walRecord {
	return walRecord{Op: opDelete, Cluster: cluster, RID: rid}
}

// maybeKickSnapshot nudges the background flusher when a shard's journal
// has outgrown the snapshot threshold. Non-blocking: a pending kick is
// enough, the flusher re-scans every shard anyway.
func (j *Journal) maybeKickSnapshot(sh *shardJournal) {
	if j.cfg.snapshotEvery() < 0 {
		return
	}
	sh.mu.Lock()
	due := sh.sinceSnap >= j.cfg.snapshotEvery()
	sh.mu.Unlock()
	if due {
		select {
		case j.kick <- struct{}{}:
		default:
		}
	}
}

// flusher is the Journal's background goroutine: group-commits fsyncs under
// FsyncBatch and folds overgrown journals into snapshots.
func (j *Journal) flusher() {
	defer j.flusherWG.Done()
	interval := j.cfg.fsyncInterval()
	if j.cfg.Fsync != FsyncBatch && interval < 50*time.Millisecond {
		// Only snapshot triggers need the timer; don't spin at fsync pace.
		interval = 50 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-tick.C:
			if j.cfg.Fsync == FsyncBatch {
				j.flushDirty()
			}
			j.snapshotDue()
		case <-j.kick:
			j.snapshotDue()
		}
	}
}

// flushDirty fsyncs every journal with unflushed appends (FsyncBatch group
// commit). A background fsync failure cannot un-acknowledge the ops it
// covered; it is counted and retried on the next tick.
func (j *Journal) flushDirty() {
	for _, sh := range j.shards {
		sh.mu.Lock()
		if sh.dirty && sh.broken == nil {
			_ = sh.fsyncLocked()
		}
		sh.mu.Unlock()
	}
}

// snapshotDue folds any journal past the snapshot threshold.
func (j *Journal) snapshotDue() {
	every := j.cfg.snapshotEvery()
	if every < 0 {
		return
	}
	for _, sh := range j.shards {
		sh.mu.Lock()
		due := sh.sinceSnap >= every
		sh.mu.Unlock()
		if due {
			_ = j.snapshotShard(sh)
		}
	}
}

// snapshotShard writes one shard's snapshot atomically and, on success,
// resets its journal. It is the only writer that takes freeze exclusively:
// while it runs, no mutation is in flight anywhere on the shard, so the
// snapshot is a consistent cut at the shard's current journal seq and the
// journal reset cannot lose a record.
//
// On failure (including an injected SnapshotRename fault) the journal is
// left untouched: recovery then replays the full WAL on top of the
// previous snapshot — durability is never reduced, the journal merely
// keeps growing until a snapshot lands.
func (j *Journal) snapshotShard(sh *shardJournal) error {
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	sh.freeze.Lock()
	defer sh.freeze.Unlock()

	snap := snapshotFile{Version: snapshotSchemaVersion, Shard: sh.idx}
	sh.mu.Lock()
	snap.Seq = sh.seq
	folded := sh.sinceSnap
	sh.mu.Unlock()

	reg := &j.svc.shards[sh.idx]
	reg.mu.RLock()
	names := make([]string, 0, len(reg.clusters))
	for name := range reg.clusters {
		names = append(names, name)
	}
	reg.mu.RUnlock()
	sortStrings(names)
	for _, name := range names {
		reg.mu.RLock()
		c := reg.clusters[name]
		reg.mu.RUnlock()
		if c == nil {
			continue
		}
		c.mu.Lock()
		cs := clusterSnap{
			Name:       c.name,
			M:          c.eng.M(),
			Policy:     c.eng.Policy(),
			Surcharge:  c.eng.Surcharge(),
			NextHandle: c.eng.HandleSeq(),
			Residents:  make([]residentSnap, 0, c.eng.Len()),
		}
		for _, ri := range c.eng.ResidentsSnapshot() {
			cs.Residents = append(cs.Residents, residentSnap{H: ri.Handle, P: ri.Proc, C: ri.C, T: ri.T, D: ri.D})
		}
		c.mu.Unlock()
		cs.Stats = c.StatsSnapshot()
		snap.Clusters = append(snap.Clusters, cs)
	}

	if err := writeFileAtomic(snapPath(sh.dir, sh.idx), snap); err != nil {
		cJournalSnapErrs.Inc()
		return fmt.Errorf("admit: snapshot shard %d: %w", sh.idx, err)
	}

	// The snapshot covers every journaled record (quiescent cut at
	// snap.Seq); reset the WAL. A crash between the rename above and this
	// truncate is benign: every WAL record has seq ≤ snap.Seq and is
	// skipped on replay.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.broken == nil {
		sh.rewindLocked(0)
	}
	sh.sinceSnap = 0
	cJournalSnapshots.Inc()
	if !t0.IsZero() {
		hJournalSnapshotUS.Observe(time.Since(t0).Microseconds())
		hJournalSnapFolds.Observe(int64(folded))
	}
	return nil
}

// writeFileAtomic persists v as JSON via a temp + fsync + rename +
// directory-fsync sequence, with the SnapshotRename fault injected
// between the write and the rename.
func writeFileAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := faultinject.SnapshotRenameErr(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// SnapshotNow synchronously folds every shard's journal into a fresh
// snapshot (regardless of thresholds) and returns the first error.
func (s *Service) SnapshotNow() error {
	if s.j == nil {
		return errors.New("admit: service has no journal attached")
	}
	var first error
	for _, sh := range s.j.shards {
		if err := s.j.snapshotShard(sh); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Journaled reports whether the service has a durability layer attached.
func (s *Service) Journaled() bool { return s.j != nil }

// Close makes the service durable at rest and releases the journal: it
// stops the flusher, writes a final snapshot of every shard (which also
// captures the volatile traffic counters, so a clean restart restores
// Status byte-identically), and closes the files. A service without a
// journal closes as a no-op. Close is idempotent; the service must not be
// used afterwards.
func (s *Service) Close() error {
	if s.j == nil {
		return nil
	}
	s.j.closeOnce.Do(func() {
		close(s.j.stop)
		s.j.flusherWG.Wait()
		var first error
		for _, sh := range s.j.shards {
			if err := s.j.snapshotShard(sh); err != nil && first == nil {
				first = err
			}
		}
		for _, sh := range s.j.shards {
			sh.mu.Lock()
			if err := sh.file.Close(); err != nil && first == nil {
				first = err
			}
			sh.broken = errors.New("admit: journal closed")
			sh.mu.Unlock()
		}
		s.j.closeErr = first
	})
	return s.j.closeErr
}

// crash abandons the journal without a final snapshot or any flush — the
// in-process stand-in for SIGKILL that the recovery-equivalence tests use
// (the process-level torture test in cmd/admitd delivers the real signal).
func (s *Service) crash() {
	if s.j == nil {
		return
	}
	s.j.closeOnce.Do(func() {
		close(s.j.stop)
		s.j.flusherWG.Wait()
		for _, sh := range s.j.shards {
			sh.mu.Lock()
			_ = sh.file.Close()
			sh.broken = errors.New("admit: journal crashed")
			sh.mu.Unlock()
		}
	})
}

// sortStrings is a tiny local sort to keep snapshot cluster order (and so
// snapshot bytes) deterministic.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

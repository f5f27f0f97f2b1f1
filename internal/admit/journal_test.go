package admit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/task"
)

// The recovery-equivalence harness: drive one op sequence through a
// journaled service and an in-memory mirror, applying to the mirror only
// the ops the journaled service acknowledged. After a crash, the recovered
// service must match the mirror's canonical state exactly — acknowledged
// ops survive, failed ops leave no trace — and must keep behaving
// identically under continued churn (which exercises the re-derived
// rta.ProcState warm-start caches: a stale cache would change verdicts).

// churner drives the paired op sequence.
type churner struct {
	t       *testing.T
	r       *rand.Rand
	durable *Service
	mirror  *Service
	names   []string
	handles map[string][]uint64 // acknowledged residents per cluster
	acked   int                 // acknowledged mutations
	failed  int                 // durability-failed mutations
}

func newChurner(t *testing.T, seed int64, durable, mirror *Service) *churner {
	return &churner{
		t: t, r: rand.New(rand.NewSource(seed)),
		durable: durable, mirror: mirror,
		names:   []string{"alpha", "beta", "gamma", "delta"},
		handles: make(map[string][]uint64),
	}
}

func (ch *churner) step(op int) {
	t, r := ch.t, ch.r
	name := ch.names[r.Intn(len(ch.names))]
	switch k := r.Intn(12); {
	case k == 0: // create
		pols := onlinePolicies
		m, pol, sur := 1+r.Intn(3), pols[r.Intn(len(pols))], task.Time(r.Intn(2))
		_, derr := ch.durable.Create(context.Background(), name, m, pol, sur)
		if errors.Is(derr, ErrDurability) {
			ch.failed++
			return
		}
		_, merr := ch.mirror.Create(context.Background(), name, m, pol, sur)
		if (derr == nil) != (merr == nil) {
			t.Fatalf("op %d: create %q diverged: durable %v, mirror %v", op, name, derr, merr)
		}
		if derr == nil {
			ch.acked++
		}
	case k == 1: // delete
		dok, derr := ch.durable.Delete(context.Background(), name)
		if errors.Is(derr, ErrDurability) {
			ch.failed++
			return
		}
		if derr != nil {
			t.Fatalf("op %d: delete %q: %v", op, name, derr)
		}
		mok, _ := ch.mirror.Delete(context.Background(), name)
		if dok != mok {
			t.Fatalf("op %d: delete %q diverged: durable %v, mirror %v", op, name, dok, mok)
		}
		if dok {
			delete(ch.handles, name)
			ch.acked++
		}
	case k < 4 && len(ch.handles[name]) > 0: // remove
		hs := ch.handles[name]
		h := hs[r.Intn(len(hs))]
		dc, _ := ch.durable.Get(name)
		mc, _ := ch.mirror.Get(name)
		dok, derr := dc.Remove(context.Background(), h)
		if errors.Is(derr, ErrDurability) {
			ch.failed++
			return
		}
		if derr != nil {
			t.Fatalf("op %d: remove %d: %v", op, h, derr)
		}
		mok, _ := mc.Remove(context.Background(), h)
		if !dok || !mok {
			t.Fatalf("op %d: tracked handle %d not resident (durable %v, mirror %v)", op, h, dok, mok)
		}
		for i, x := range hs {
			if x == h {
				ch.handles[name] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
		ch.acked++
	default: // admit
		dc, dok := ch.durable.Get(name)
		mc, mok := ch.mirror.Get(name)
		if dok != mok {
			t.Fatalf("op %d: registry diverged on %q", op, name)
		}
		T := task.Time(10 * (1 + r.Intn(6)))
		tk := task.Task{C: 1 + task.Time(r.Intn(int(T)/2)), T: T}
		if r.Intn(3) == 0 {
			tk.D = tk.C + task.Time(r.Intn(int(T-tk.C)+1))
		}
		if !dok {
			return
		}
		dres, derr := dc.Admit(context.Background(), tk)
		if errors.Is(derr, ErrDurability) {
			ch.failed++
			return
		}
		if derr != nil {
			t.Fatalf("op %d: admit: %v", op, derr)
		}
		mres, merr := mc.Admit(context.Background(), tk)
		if merr != nil {
			t.Fatalf("op %d: mirror admit: %v", op, merr)
		}
		if !reflect.DeepEqual(dres, mres) {
			t.Fatalf("op %d: admit verdicts diverged:\ndurable %+v\nmirror  %+v", op, dres, mres)
		}
		if dres.Accepted {
			ch.handles[name] = append(ch.handles[name], dres.Handle)
			ch.acked++
		}
	}
}

func canonEqual(t *testing.T, got, want *Service, label string) {
	t.Helper()
	g, w := got.CanonicalState(), want.CanonicalState()
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: canonical state diverged\nrecovered: %x\nmirror:    %x", label, g, w)
	}
}

// runCrashRecovery is the shared skeleton: churn with a mirror under cfg
// (and optional fault plan), crash, recover, verify canonical equality and
// behavioral continuation.
func runCrashRecovery(t *testing.T, seed int64, ops int, cfg JournalConfig, plan *faultinject.Plan) RecoveryStats {
	t.Helper()
	durable := NewService(4)
	if _, err := durable.AttachJournal(cfg); err != nil {
		t.Fatal(err)
	}
	mirror := NewService(4)
	ch := newChurner(t, seed, durable, mirror)
	if plan != nil {
		faultinject.Arm(*plan)
		defer faultinject.Disarm()
	}
	for op := 0; op < ops; op++ {
		ch.step(op)
	}
	faultinject.Disarm()
	if ch.acked == 0 {
		t.Fatal("churn acknowledged nothing; the run proves nothing")
	}
	durable.crash()

	recovered := NewService(4)
	rs, err := recovered.AttachJournal(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	canonEqual(t, recovered, mirror, "post-crash")

	// Behavioral continuation: the recovered service (with its re-derived
	// warm-start caches) and the mirror must keep agreeing verdict for
	// verdict. Swap the recovered service in as the churner's durable side.
	cont := newChurner(t, seed+1, recovered, mirror)
	for name, hs := range ch.handles {
		cont.handles[name] = append([]uint64(nil), hs...)
	}
	for op := 0; op < 150; op++ {
		cont.step(op)
	}
	canonEqual(t, recovered, mirror, "post-continuation")
	return rs
}

func TestCrashRecoveryEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  JournalConfig
	}{
		{"fsync-always", JournalConfig{Fsync: FsyncAlways}},
		{"fsync-batch", JournalConfig{Fsync: FsyncBatch, FsyncInterval: time.Millisecond}},
		{"fsync-off", JournalConfig{Fsync: FsyncOff}},
		{"snapshot-heavy", JournalConfig{Fsync: FsyncOff, SnapshotEvery: 8}},
		{"snapshot-disabled", JournalConfig{Fsync: FsyncAlways, SnapshotEvery: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Dir = t.TempDir()
			runCrashRecovery(t, 11, 400, cfg, nil)
		})
	}
}

// TestCrashRecoveryUnderFaults churns with journal appends, fsyncs, and
// snapshot renames failing at injected rates: failed ops surface
// ErrDurability and must leave no trace, failed snapshots must degrade to
// longer WAL replay, and recovery must still match the mirror exactly.
func TestCrashRecoveryUnderFaults(t *testing.T) {
	cfg := JournalConfig{Dir: t.TempDir(), Fsync: FsyncAlways, SnapshotEvery: 16}
	plan := &faultinject.Plan{
		Seed:                7,
		JournalAppendEvery:  11,
		JournalFsyncEvery:   13,
		SnapshotRenameEvery: 2,
	}
	runCrashRecovery(t, 23, 500, cfg, plan)
	if faultinject.Fired(faultinject.JournalAppend) == 0 || faultinject.Fired(faultinject.JournalFsync) == 0 {
		t.Fatal("fault plan never fired; the run proves nothing")
	}
}

// TestCleanCloseByteIdenticalStatus pins the stronger clean-shutdown
// contract: Close writes a final snapshot including the volatile traffic
// counters, so a reopened service reports byte-identical Status() for
// every cluster, not just equal canonical engine state.
func TestCleanCloseByteIdenticalStatus(t *testing.T) {
	cfg := JournalConfig{Dir: t.TempDir(), Fsync: FsyncBatch, FsyncInterval: time.Millisecond}
	svc := NewService(4)
	if _, err := svc.AttachJournal(cfg); err != nil {
		t.Fatal(err)
	}
	ch := newChurner(t, 5, svc, NewService(4))
	for op := 0; op < 300; op++ {
		ch.step(op)
	}
	statusOf := func(s *Service) []byte {
		var all []Status
		for _, name := range s.Names() {
			c, _ := s.Get(name)
			all = append(all, c.Status())
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := statusOf(svc)
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reopened := NewService(4)
	rs, err := reopened.AttachJournal(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if rs.Replayed != 0 {
		t.Errorf("clean close left %d journal records to replay, want 0", rs.Replayed)
	}
	if after := statusOf(reopened); !bytes.Equal(before, after) {
		t.Errorf("Status not byte-identical across clean close:\nbefore %s\nafter  %s", before, after)
	}
}

// TestTornTailRecovery pins the crash-mid-append path: a torn append is
// never acknowledged, wedges the journal (fail-stop, no silent repair in
// flight), and on restart the torn bytes are truncated away with the
// acknowledged prefix intact.
func TestTornTailRecovery(t *testing.T) {
	cfg := JournalConfig{Dir: t.TempDir(), Fsync: FsyncAlways}
	durable := NewService(4)
	if _, err := durable.AttachJournal(cfg); err != nil {
		t.Fatal(err)
	}
	mirror := NewService(4)
	ch := newChurner(t, 31, durable, mirror)
	for op := 0; op < 120; op++ {
		ch.step(op)
	}

	// A dedicated target cluster (the churn may have deleted any of its
	// own), created on both sides before the tear.
	if _, err := durable.Create(context.Background(), "torn-target", 2, "", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.Create(context.Background(), "torn-target", 2, "", 0); err != nil {
		t.Fatal(err)
	}
	c, _ := durable.Get("torn-target")

	faultinject.Arm(faultinject.Plan{JournalTearEvery: 1})
	defer faultinject.Disarm()
	if _, err := c.Admit(context.Background(), task.Task{C: 1, T: 100}); !errors.Is(err, ErrDurability) {
		t.Fatalf("torn admit err = %v, want ErrDurability", err)
	}
	faultinject.Disarm()
	// The journal is wedged fail-stop: later mutations on the same shard
	// also refuse rather than appending after an unrepaired tear.
	if _, err := c.Admit(context.Background(), task.Task{C: 1, T: 100}); !errors.Is(err, ErrDurability) {
		t.Fatalf("post-tear admit err = %v, want ErrDurability (wedged journal)", err)
	}
	durable.crash()

	recovered := NewService(4)
	rs, err := recovered.AttachJournal(cfg)
	if err != nil {
		t.Fatalf("recovery after tear: %v", err)
	}
	defer recovered.Close()
	if rs.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", rs.TornTails)
	}
	canonEqual(t, recovered, mirror, "post-tear")
}

// TestDeleteAdmitRaceStaysReplayable races Admit/Remove through stale
// cluster handles against Service.Delete and then recovers from the WAL.
// Delete journals its record while holding the victim's own lock and marks
// it deleted, so no per-cluster record can land after the delete record;
// without that exclusion an admit record could follow the delete and
// replay would refuse startup ("replayed admit into unknown cluster") —
// permanently, until manual WAL surgery.
func TestDeleteAdmitRaceStaysReplayable(t *testing.T) {
	dir := t.TempDir()
	cfg := JournalConfig{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1}
	svc := NewService(2)
	if _, err := svc.AttachJournal(cfg); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		if _, err := svc.Create(context.Background(), "racer", 2, "", 0); err != nil {
			t.Fatal(err)
		}
		c, _ := svc.Get("racer")
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					res, err := c.Admit(context.Background(), task.Task{C: 1, T: task.Time(10 + w)})
					if errors.Is(err, ErrDeleted) {
						return
					}
					if err != nil {
						t.Errorf("racing admit: %v", err)
						return
					}
					if res.Accepted && i%2 == 0 {
						if _, err := c.Remove(context.Background(), res.Handle); err != nil && !errors.Is(err, ErrDeleted) {
							t.Errorf("racing remove: %v", err)
							return
						}
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Delete(context.Background(), "racer"); err != nil {
				t.Errorf("racing delete: %v", err)
			}
		}()
		wg.Wait()
		if t.Failed() {
			break
		}
	}
	svc.crash()
	recovered := NewService(2)
	if _, err := recovered.AttachJournal(cfg); err != nil {
		t.Fatalf("recovery after delete/admit races: %v", err)
	}
	recovered.Close()
	if _, ok := recovered.Get("racer"); ok {
		t.Error("deleted cluster survived recovery")
	}
}

// TestRecoveryRefusesCorruption pins the fail-stop contract for anything
// beyond a torn tail: mid-journal garbage, sequence gaps, schema drift,
// and shard-count changes refuse startup instead of guessing.
func TestRecoveryRefusesCorruption(t *testing.T) {
	seedDir := func(t *testing.T) string {
		dir := t.TempDir()
		svc := NewService(4)
		if _, err := svc.AttachJournal(JournalConfig{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Create(context.Background(), "alpha", 2, "", 0); err != nil {
			t.Fatal(err)
		}
		c, _ := svc.Get("alpha")
		for i := 0; i < 5; i++ {
			if _, err := c.Admit(context.Background(), task.Task{C: 1, T: 10}); err != nil {
				t.Fatal(err)
			}
		}
		svc.crash()
		return dir
	}
	shardOf := func(dir string) string {
		return walPath(dir, NewService(4).shardIndex("alpha"))
	}

	t.Run("mid-journal-garbage", func(t *testing.T) {
		dir := seedDir(t)
		p := shardOf(dir)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		lines[1] = []byte("not json\n")
		if err := os.WriteFile(p, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewService(4).AttachJournal(JournalConfig{Dir: dir}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("sequence-gap", func(t *testing.T) {
		dir := seedDir(t)
		p := shardOf(dir)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		copy(lines[2:], lines[3:]) // drop a mid-journal record
		if err := os.WriteFile(p, bytes.Join(lines[:len(lines)-1], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewService(4).AttachJournal(JournalConfig{Dir: dir}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("terminated-final-record-corruption", func(t *testing.T) {
		// A newline-terminated final line was written whole — failing to
		// parse it is in-place corruption of a possibly fsync-acknowledged
		// record, not a torn append, and must refuse startup instead of
		// silently truncating an acknowledged mutation away.
		dir := seedDir(t)
		p := shardOf(dir)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		lines[len(lines)-2] = []byte("{\"v\":1,#rot}\n")
		if err := os.WriteFile(p, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewService(4).AttachJournal(JournalConfig{Dir: dir}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("torn-tail-is-not-corruption", func(t *testing.T) {
		dir := seedDir(t)
		f, err := os.OpenFile(shardOf(dir), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"v":1,"seq":`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		svc := NewService(4)
		rs, err := svc.AttachJournal(JournalConfig{Dir: dir})
		if err != nil || rs.TornTails != 1 {
			t.Fatalf("rs %+v err %v, want TornTails 1 and nil error", rs, err)
		}
		svc.Close()
	})
	t.Run("shard-count-mismatch", func(t *testing.T) {
		dir := seedDir(t)
		_, err := NewService(8).AttachJournal(JournalConfig{Dir: dir})
		if err == nil {
			t.Fatal("8-shard service opened a 4-shard data dir")
		}
	})
	// A hand-written record or resident whose period lies past task.MaxTime
	// is outside the model's domain: replay re-rejects the admission and
	// snapshot restore refuses the resident, so startup fails with
	// ErrCorrupt instead of loading it.
	outOfDomain := func(t *testing.T, p string, old, new string) {
		t.Helper()
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.Replace(data, []byte(old), []byte(new), 1)
		if bytes.Equal(edited, data) {
			t.Fatalf("%s holds no %s", p, old)
		}
		if err := os.WriteFile(p, edited, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("out-of-domain-wal-record", func(t *testing.T) {
		dir := seedDir(t)
		outOfDomain(t, shardOf(dir), `"t":10`, `"t":17592186044417`)
		if _, err := NewService(4).AttachJournal(JournalConfig{Dir: dir}); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "outside the model's domain") {
			t.Fatalf("err = %v, want ErrCorrupt naming the domain", err)
		}
	})
	t.Run("out-of-domain-snapshot-resident", func(t *testing.T) {
		dir := seedDir(t)
		svc := NewService(4)
		if _, err := svc.AttachJournal(JournalConfig{Dir: dir, SnapshotEvery: -1}); err != nil {
			t.Fatal(err)
		}
		if err := svc.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		svc.crash()
		outOfDomain(t, snapPath(dir, NewService(4).shardIndex("alpha")),
			`"t":10,"d":10`, `"t":17592186044417,"d":17592186044417`)
		if _, err := NewService(4).AttachJournal(JournalConfig{Dir: dir}); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "outside the model's domain") {
			t.Fatalf("err = %v, want ErrCorrupt naming the domain", err)
		}
	})
}

// TestSnapshotNow pins the explicit snapshot path: after SnapshotNow the
// WAL is empty, and a crash immediately after recovers entirely from the
// snapshot (zero replayed records).
func TestSnapshotNow(t *testing.T) {
	cfg := JournalConfig{Dir: t.TempDir(), Fsync: FsyncAlways, SnapshotEvery: -1}
	svc := NewService(4)
	if _, err := svc.AttachJournal(cfg); err != nil {
		t.Fatal(err)
	}
	mirror := NewService(4)
	ch := newChurner(t, 13, svc, mirror)
	for op := 0; op < 150; op++ {
		ch.step(op)
	}
	if err := svc.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	svc.crash()
	recovered := NewService(4)
	rs, err := recovered.AttachJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if rs.Replayed != 0 {
		t.Errorf("Replayed = %d after SnapshotNow, want 0", rs.Replayed)
	}
	canonEqual(t, recovered, mirror, "post-snapshot crash")
}

// FuzzJournalReplay is the randomized end-to-end equivalence check: any
// (seed, ops) pair must survive crash and recovery with canonical state
// equal to the acknowledged-ops mirror.
func FuzzJournalReplay(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(0))
	f.Add(int64(42), uint16(300), uint8(1))
	f.Add(int64(-7), uint16(120), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16, mode uint8) {
		cfg := JournalConfig{Dir: t.TempDir()}
		switch mode % 3 {
		case 0:
			cfg.Fsync = FsyncAlways
		case 1:
			cfg.Fsync, cfg.FsyncInterval = FsyncBatch, time.Millisecond
		case 2:
			cfg.Fsync, cfg.SnapshotEvery = FsyncOff, 8
		}
		n := int(ops%500) + 20
		durable := NewService(4)
		if _, err := durable.AttachJournal(cfg); err != nil {
			t.Fatal(err)
		}
		mirror := NewService(4)
		ch := newChurner(t, seed, durable, mirror)
		for op := 0; op < n; op++ {
			ch.step(op)
		}
		durable.crash()
		recovered := NewService(4)
		if _, err := recovered.AttachJournal(cfg); err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer recovered.Close()
		canonEqual(t, recovered, mirror, "fuzz post-crash")
	})
}

package admit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/explain"
	"repro/internal/partition"
	"repro/internal/task"
)

// admitNow and removeNow are the no-context, must-not-error call shapes:
// on an unjournaled cluster with a background context the error return is
// structurally nil, so any error here is a test bug worth failing loudly.
func admitNow(tb testing.TB, c *Cluster, tk task.Task) Result {
	tb.Helper()
	res, err := c.Admit(context.Background(), tk)
	if err != nil {
		tb.Fatalf("Admit(%v): %v", tk, err)
	}
	return res
}

// admitEvidenceNow is admitNow on the opt-in path (AdmitWithEvidence).
func admitEvidenceNow(tb testing.TB, c *Cluster, tk task.Task) Result {
	tb.Helper()
	res, err := c.AdmitWithEvidence(context.Background(), tk)
	if err != nil {
		tb.Fatalf("AdmitWithEvidence(%v): %v", tk, err)
	}
	return res
}

func removeNow(tb testing.TB, c *Cluster, h uint64) bool {
	tb.Helper()
	ok, err := c.Remove(context.Background(), h)
	if err != nil {
		tb.Fatalf("Remove(%d): %v", h, err)
	}
	return ok
}

func deleteNow(tb testing.TB, s *Service, name string) bool {
	tb.Helper()
	ok, err := s.Delete(context.Background(), name)
	if err != nil {
		tb.Fatalf("Delete(%q): %v", name, err)
	}
	return ok
}

func TestServiceRegistry(t *testing.T) {
	s := NewService(4)
	if _, err := s.Create(context.Background(), "", 2, "", 0); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.Create(context.Background(), "a", 0, "", 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := s.Create(context.Background(), "a", 2, "nope", 0); err == nil {
		t.Error("bad policy accepted")
	}
	c, err := s.Create(context.Background(), "a", 2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "a" {
		t.Errorf("Name() = %q", c.Name())
	}
	if _, err := s.Create(context.Background(), "a", 2, "", 0); err == nil {
		t.Error("duplicate name accepted")
	}
	if got, ok := s.Get("a"); !ok || got != c {
		t.Error("Get(a) did not return the created cluster")
	}
	if _, ok := s.Get("b"); ok {
		t.Error("Get(b) found a ghost")
	}
	// Names across shards, sorted.
	for _, n := range []string{"z", "m", "b"} {
		if _, err := s.Create(context.Background(), n, 1, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"a", "b", "m", "z"}) {
		t.Errorf("Names() = %v", got)
	}
	if !deleteNow(t, s, "m") || deleteNow(t, s, "m") {
		t.Error("Delete semantics broken")
	}
	if _, ok := s.Get("m"); ok {
		t.Error("deleted cluster still reachable")
	}
}

// TestDeletedClusterRefusesMutations pins the stale-handle contract:
// once Delete returns, a *Cluster obtained before the delete can no longer
// mutate — Admit and Remove fail with ErrDeleted instead of silently
// operating on unregistered (and, when journaled, undurable) state.
func TestDeletedClusterRefusesMutations(t *testing.T) {
	s := NewService(4)
	c, err := s.Create(context.Background(), "victim", 2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	res := admitNow(t, c, task.Task{C: 1, T: 10})
	if !res.Accepted {
		t.Fatalf("setup admit rejected: %+v", res)
	}
	if !deleteNow(t, s, "victim") {
		t.Fatal("delete missed")
	}
	if _, err := c.Admit(context.Background(), task.Task{C: 1, T: 10}); !errors.Is(err, ErrDeleted) {
		t.Errorf("stale Admit err = %v, want ErrDeleted", err)
	}
	if _, err := c.Remove(context.Background(), res.Handle); !errors.Is(err, ErrDeleted) {
		t.Errorf("stale Remove err = %v, want ErrDeleted", err)
	}
	// A recreated same-name cluster is a fresh tenant, unaffected by the
	// old handle's fate.
	c2, err := s.Create(context.Background(), "victim", 2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := admitNow(t, c2, task.Task{C: 1, T: 10}); !res.Accepted {
		t.Errorf("recreated cluster rejected a fresh admit: %+v", res)
	}
}

// guardCluster creates an unjournaled M-processor cluster and admits
// (C=24, T=100) tasks until one is rejected, which leaves every processor
// full, so the probes walk a populated mirror everywhere.
func guardCluster(tb testing.TB, m int, policy string) *Cluster {
	tb.Helper()
	c, err := NewService(0).Create(context.Background(), "guard", m, policy, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8*m; i++ {
		if res := admitNow(tb, c, task.Task{C: 24, T: 100}); !res.Accepted {
			break
		}
	}
	for q := 0; q < m; q++ {
		if c.eng.ProcLen(q) == 0 {
			tb.Fatalf("processor %d empty after prefill", q)
		}
	}
	return c
}

// onlinePolicies lists the three partition.Online placement policies.
var onlinePolicies = []string{partition.OnlineRTAFirstFit, partition.OnlineRTAWorstFit, partition.OnlineThreshold}

// TestClusterAdmitRejectShapes pins the Result surface: evidence on
// analyzed rejections asked for it, none on input errors, handles usable
// for Remove.
func TestClusterAdmitRejectShapes(t *testing.T) {
	s := NewService(0)
	c, err := s.Create(context.Background(), "t", 1, partition.OnlineRTAFirstFit, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok := admitNow(t, c, task.Task{C: 2, T: 5})
	if !ok.Accepted || ok.Handle == 0 || ok.Proc != 0 || ok.Response != 2 {
		t.Fatalf("accept result: %+v", ok)
	}
	// U = 0.4 + 4/7 ≤ 1, yet the candidate's response (8) exceeds its
	// deadline (7): exact RTA refused it, and the evidence is its probe.
	miss := admitEvidenceNow(t, c, task.Task{Name: "miss", C: 4, T: 7})
	if miss.Accepted || miss.Cause != "rta-deadline-miss" || miss.Proc != -1 {
		t.Fatalf("reject result: %+v", miss)
	}
	if len(miss.Evidence) != 1 || miss.Evidence[0].Detail == nil ||
		miss.Evidence[0].Detail.OwnVerdict == "" || miss.Evidence[0].Detail.HasUtilization {
		t.Fatalf("RTA rejection lacks its probe: %+v", miss.Evidence)
	}
	if miss.CauseDetail == "" || miss.Reason == "" {
		t.Fatalf("rejection lacks prose: %+v", miss)
	}
	// U = 0.4 + 0.8 > 1: refused by utilization alone, and the evidence is
	// the room 1 − U the candidate overflowed, with no RTA probe.
	full := admitEvidenceNow(t, c, task.Task{Name: "big", C: 8, T: 10})
	if full.Accepted || full.Cause != "rta-deadline-miss" || full.Proc != -1 {
		t.Fatalf("reject result: %+v", full)
	}
	if len(full.Evidence) != 1 || full.Evidence[0].Detail == nil ||
		*full.Evidence[0].Detail != (explain.ProcEvidence{UtilizationRoom: 1 - 0.4, HasUtilization: true}) ||
		full.Evidence[0].Utilization != 0.4 {
		t.Fatalf("over-full rejection lacks utilization evidence: %+v", full.Evidence)
	}
	bad := admitEvidenceNow(t, c, task.Task{C: 0, T: 10})
	if bad.Accepted || bad.Cause != "invalid-input" || bad.Evidence != nil {
		t.Fatalf("invalid-input result: %+v", bad)
	}
	if !removeNow(t, c, ok.Handle) || removeNow(t, c, ok.Handle) {
		t.Error("Remove semantics broken")
	}
	st := c.Status()
	if st.Tasks != 0 || st.M != 1 || len(st.Procs) != 1 || st.Stats.Requests != 4 ||
		st.Stats.Accepted != 1 || st.Stats.Rejected != 3 || st.Stats.Removed != 1 {
		t.Errorf("status: %+v", st)
	}
}

// TestClusterStatsConcurrent hammers one cluster and several tenants from
// many goroutines; run under -race this pins the striped-lock and atomic
// stats design.
func TestClusterStatsConcurrent(t *testing.T) {
	s := NewService(8)
	shared, err := s.Create(context.Background(), "shared", 4, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", w)
			own, err := s.Create(context.Background(), name, 2, partition.OnlineRTAWorstFit, 0)
			if err != nil {
				t.Error(err)
				return
			}
			r := rand.New(rand.NewSource(int64(w)))
			var mine []uint64
			for i := 0; i < 200; i++ {
				for _, c := range []*Cluster{shared, own} {
					T := task.Time(10 + r.Intn(100))
					res, err := c.Admit(context.Background(), task.Task{C: 1 + task.Time(r.Intn(5)), T: T})
					if err != nil {
						t.Error(err)
						return
					}
					if res.Accepted && c == own {
						mine = append(mine, res.Handle)
					}
					c.StatsSnapshot() // lock-free read while others write
					c.Status()
				}
				if len(mine) > 4 {
					own.Remove(context.Background(), mine[0])
					mine = mine[1:]
				}
				s.Get("shared")
			}
		}(w)
	}
	wg.Wait()
	snap := shared.StatsSnapshot()
	if snap.Requests != 8*200 {
		t.Errorf("shared requests = %d, want %d", snap.Requests, 8*200)
	}
	if snap.Accepted+snap.Rejected != snap.Requests {
		t.Errorf("accepted %d + rejected %d != requests %d", snap.Accepted, snap.Rejected, snap.Requests)
	}
}

package shard

import (
	"testing"

	"rings/internal/oracle"
)

// TestFleetCommitInheritsRoutingDemand: on a K = 2, R = 2 churn fleet the
// epoch-fenced commit follows the one rule for routers. With no route
// asked, neither the primary (the mutator's commit) nor the replica (the
// shipped snapshot) builds one; once a backend has routed, the snapshot
// that replaces its routed one — the commit's on the primary, Ship's on
// the replica — has its router before the commit returns.
func TestFleetCommitInheritsRoutingDemand(t *testing.T) {
	f, err := NewFleet(Config{
		Oracle:   oracle.Config{Workload: "latency", N: 32, Seed: 2, MemberStride: 3},
		Shards:   2,
		Replicas: 2,
		Churn:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// served lists shard s's backends' snapshots: primary, then replica.
	served := func(s int) []*oracle.Snapshot {
		var out []*oracle.Snapshot
		for _, rep := range f.shards[s].reps.reps {
			out = append(out, rep.gate.inner.(*localBackend).snapshot())
		}
		return out
	}
	commit := func() int {
		t.Helper()
		commits, err := f.AutoJoin(1)
		if err != nil || len(commits) != 1 {
			t.Fatalf("join: %d commits, err %v", len(commits), err)
		}
		return commits[0].Shard
	}
	check := func(when string, s int, routed bool) {
		t.Helper()
		for r, snap := range served(s) {
			if !snap.Routable() || snap.Routed() != routed {
				t.Fatalf("%s: shard %d replica %d routable=%v routed=%v, want routed=%v",
					when, s, r, snap.Routable(), snap.Routed(), routed)
			}
		}
	}
	check("boot", 0, false)
	check("boot", 1, false)
	s := commit()
	check("commit with no route asked", s, false)

	for _, rep := range f.shards[s].reps.reps {
		if _, err := rep.b.Route(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	check("after a route on each backend", s, true)
	before := served(s)
	for tries := 0; commit() != s; tries++ {
		if tries == 2*f.K() {
			t.Fatalf("joins never reached shard %d again", s)
		}
	}
	for r, snap := range served(s) {
		if snap == before[r] {
			t.Fatalf("shard %d replica %d kept its snapshot across a commit", s, r)
		}
	}
	check("commit replacing routed snapshots", s, true)
	check("the shard nobody routed on", 1-s, false)
}

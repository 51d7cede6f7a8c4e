package shard

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rings/internal/churn"
	"rings/internal/oracle"
	"rings/internal/simnet"
	"rings/internal/telemetry"
)

// fastReplicaKnobs are the recovery-pipeline timings every robustness
// test runs with: probe and breaker cadences shrunk from production
// defaults so kill → reopen → resync cycles complete in milliseconds.
func fastReplicaKnobs(cfg Config) Config {
	cfg.ProbeInterval = 2 * time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerBackoff = 2 * time.Millisecond
	cfg.BreakerMaxBackoff = 20 * time.Millisecond
	return cfg
}

// waitReplica polls one replica's roster entry until pred accepts it.
func waitReplica(t testing.TB, f *Fleet, s, r int, what string, pred func(ReplicaStatus) bool) ReplicaStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, st := range f.ReplicaStatuses() {
			if st.Shard == s && st.Replica == r {
				if pred(st) {
					return st
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica (%d,%d) never became %s; roster: %+v", s, r, what, f.ReplicaStatuses())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// recovered is the fully-back predicate: breaker closed, not killed,
// serving the shard's live era.
func recovered(st ReplicaStatus) bool {
	return st.State == "closed" && !st.Down && st.Current
}

// waitAllRecovered waits until every replica of every shard is back.
func waitAllRecovered(t testing.TB, f *Fleet) {
	t.Helper()
	for s := 0; s < f.K(); s++ {
		for r := 0; r < f.Replicas(); r++ {
			waitReplica(t, f, s, r, "recovered", recovered)
		}
	}
}

// robustDeck is a precomputed query deck: every answer was produced by
// a healthy twin fleet, so replaying it against the victim checks
// byte-identity under faults (math.Float64bits equality falls out of
// == on float64 fields: the healthy twin and the victim build the same
// deterministic snapshots, so any deviation means a replica served
// different bytes).
type robustOp struct {
	kind  byte // 'e' estimate, 'n' nearest, 'r' route
	a, b  int
	est   EstimateResult
	near  NearestResult
	route RouteResult
}

func buildDeck(t testing.TB, healthy *Fleet) []robustOp {
	t.Helper()
	n := healthy.Universe()
	var deck []robustOp
	for u := 0; u < n; u++ {
		v := (u*7 + 3) % n
		if v == u {
			v = (v + 1) % n
		}
		res, err := healthy.Estimate(u, v)
		if err != nil {
			t.Fatalf("healthy estimate (%d,%d): %v", u, v, err)
		}
		deck = append(deck, robustOp{kind: 'e', a: u, b: v, est: res})
	}
	for g := 0; g < n; g++ {
		res, err := healthy.Nearest(g)
		if err != nil {
			t.Fatalf("healthy nearest %d: %v", g, err)
		}
		deck = append(deck, robustOp{kind: 'n', a: g, near: res})
	}
	k := healthy.K()
	for s := 0; s < k; s++ {
		nodes := healthy.ShardNodes(s)
		rng := rand.New(rand.NewSource(int64(s) + 41))
		for q := 0; q < 6; q++ {
			src := int(nodes[rng.Intn(len(nodes))])
			dst := int(nodes[rng.Intn(len(nodes))])
			res, err := healthy.Route(src, dst)
			if err != nil {
				t.Fatalf("healthy route (%d,%d): %v", src, dst, err)
			}
			deck = append(deck, robustOp{kind: 'r', a: src, b: dst, route: res})
		}
	}
	return deck
}

// checkOp replays one deck entry against the victim and returns a
// description of the first mismatch ("" when identical). Epoch and
// Cached are excluded: the era counter legitimately moves under
// kill/restart, and cache hits depend on query interleaving.
func checkOp(f *Fleet, op robustOp) string {
	switch op.kind {
	case 'e':
		got, err := f.Estimate(op.a, op.b)
		if err != nil {
			return "estimate error: " + err.Error()
		}
		w := op.est
		if got.Lower != w.Lower || got.Upper != w.Upper || got.OK != w.OK ||
			got.Cross != w.Cross || got.UShard != w.UShard || got.VShard != w.VShard ||
			got.Version != w.Version {
			return "estimate mismatch"
		}
	case 'n':
		got, err := f.Nearest(op.a)
		if err != nil {
			return "nearest error: " + err.Error()
		}
		w := op.near
		if got.Member != w.Member || got.Dist != w.Dist || got.Hops != w.Hops ||
			got.Shard != w.Shard || len(got.Path) != len(w.Path) {
			return "nearest mismatch"
		}
		for i := range w.Path {
			if got.Path[i] != w.Path[i] {
				return "nearest path mismatch"
			}
		}
	case 'r':
		got, err := f.Route(op.a, op.b)
		if err != nil {
			return "route error: " + err.Error()
		}
		w := op.route
		if got.Length != w.Length || got.Dist != w.Dist || got.Stretch != w.Stretch ||
			got.Hops != w.Hops || len(got.Path) != len(w.Path) {
			return "route mismatch"
		}
		for i := range w.Path {
			if got.Path[i] != w.Path[i] {
				return "route path mismatch"
			}
		}
	}
	return ""
}

// TestFleetReplicaKillByteIdentity is the PR's gold standard: a K=4,
// R=2 fleet losing any single replica under concurrent mixed load
// keeps answering with zero client-visible errors, and every answer is
// byte-identical to a healthy twin fleet's. Each of the 8 replicas is
// killed and restarted in turn while 4 workers replay the full deck.
func TestFleetReplicaKillByteIdentity(t *testing.T) {
	cfg := fastReplicaKnobs(Config{
		Oracle:   oracle.Config{Workload: "cube", N: 48, Seed: 9, MemberStride: 4},
		Shards:   4,
		Replicas: 2,
	})
	healthyCfg := cfg
	healthyCfg.Replicas = 1 // the reference twin needs no replica layer
	healthy, err := NewFleet(healthyCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	victim, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	deck := buildDeck(t, healthy)

	var (
		stop     atomic.Bool
		replays  atomic.Int64
		mismatch atomic.Pointer[string]
		wg       sync.WaitGroup
	)
	workers := 4
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				op := deck[i%len(deck)]
				if msg := checkOp(victim, op); msg != "" {
					full := msg
					mismatch.CompareAndSwap(nil, &full)
					return
				}
				replays.Add(1)
			}
		}()
	}

	for s := 0; s < victim.K(); s++ {
		for r := 0; r < victim.Replicas(); r++ {
			if err := victim.KillReplica(s, r); err != nil {
				t.Fatalf("kill (%d,%d): %v", s, r, err)
			}
			waitReplica(t, victim, s, r, "down+open", func(st ReplicaStatus) bool {
				return st.Down && st.State == "open"
			})
			time.Sleep(10 * time.Millisecond) // serve under degradation
			if !victim.Degraded() {
				t.Fatalf("fleet not degraded with (%d,%d) killed", s, r)
			}
			if err := victim.RestartReplica(s, r); err != nil {
				t.Fatalf("restart (%d,%d): %v", s, r, err)
			}
			waitReplica(t, victim, s, r, "recovered", recovered)
			if m := mismatch.Load(); m != nil {
				t.Fatalf("mismatch while cycling (%d,%d): %s", s, r, *m)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if m := mismatch.Load(); m != nil {
		t.Fatalf("replay mismatch: %s", *m)
	}
	if replays.Load() < int64(len(deck)) {
		t.Fatalf("workers replayed only %d ops over %d kill/restart cycles", replays.Load(), victim.K()*victim.Replicas())
	}
	if down := victim.ReplicasDown(); down != 0 {
		t.Fatalf("%d replicas still down after recovery", down)
	}
	st := victim.Stats()
	if st.Replicas != 2 || st.BreakerOpens < int64(victim.K()*victim.Replicas()) || st.Resyncs < int64(victim.K()*victim.Replicas()) {
		t.Fatalf("stats missed the chaos: %+v", st)
	}
}

// TestFleetEpochFenceMidQuery proves the fencing contract with the
// deterministic seam: an epoch bump landing between capture and answer
// assembly forces exactly one retry, and the returned answer carries
// the post-bump era — never a mixed-era result. A hook that bumps on
// every attempt must exhaust the fence into ErrEpochFenced.
func TestFleetEpochFenceMidQuery(t *testing.T) {
	f, err := NewFleet(Config{
		Oracle: oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3,
			SkipOverlay: true},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var once sync.Once
	f.epochHook = func(epoch int64, attempt int) {
		once.Do(func() { f.AdvanceEpoch() })
	}
	before := f.metrics.epochRetries.Value()
	epoch0 := f.Epoch()
	res, err := f.Estimate(0, 1) // owners 0 and 1: the cross-shard path
	if err != nil {
		t.Fatalf("fenced estimate: %v", err)
	}
	if res.Epoch != f.Epoch() || res.Epoch != epoch0+1 {
		t.Fatalf("answer era %d, want the post-bump epoch %d", res.Epoch, epoch0+1)
	}
	if got := f.metrics.epochRetries.Value(); got != before+1 {
		t.Fatalf("epoch retries %d, want %d", got, before+1)
	}
	// The retried answer must equal a quiet re-ask (same era, no hook).
	f.epochHook = nil
	again, err := f.Estimate(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lower != again.Lower || res.Upper != again.Upper || res.OK != again.OK {
		t.Fatalf("retried answer {%v %v %v} differs from settled answer {%v %v %v}",
			res.Lower, res.Upper, res.OK, again.Lower, again.Upper, again.OK)
	}

	// An epoch that never stops moving exhausts the fence.
	f.epochHook = func(epoch int64, attempt int) { f.AdvanceEpoch() }
	if _, err := f.Estimate(0, 2); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("perpetual epoch churn: got %v, want ErrEpochFenced", err)
	}
	f.epochHook = nil
}

// TestFleetEpochFenceCommit proves the mutation-side fence: a commit
// whose routing decision pre-dates an epoch bump aborts inside the
// mutator fence with the shard untouched, and the retry loop then
// lands it under the fresh era.
func TestFleetEpochFenceCommit(t *testing.T) {
	f, err := NewFleet(Config{
		Oracle: oracle.Config{Workload: "latency", N: 24, Seed: 2, MemberStride: 3},
		Shards: 2,
		Churn:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	unit := f.shards[0]
	snapBefore := unit.load().snap
	nBefore := f.N()
	unit.mu.Lock()
	_, err = f.commitLocked(unit, 0, []churn.Op{{Kind: churn.Join, Base: 0}}, f.Epoch()+1)
	unit.mu.Unlock()
	if !errors.Is(err, errEpochChanged) {
		t.Fatalf("stale-epoch commit: got %v, want errEpochChanged", err)
	}
	if f.N() != nBefore || unit.load().snap != snapBefore {
		t.Fatal("stale-epoch commit touched the shard")
	}

	// The public path re-captures and commits.
	commits, err := f.AutoJoin(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != 1 || commits[0].Epoch != f.Epoch() {
		t.Fatalf("commit era %+v, fleet epoch %d", commits, f.Epoch())
	}
	if f.N() != nBefore+1 {
		t.Fatalf("join did not land: n=%d want %d", f.N(), nBefore+1)
	}
}

// TestFleetSimPartitionFailover drives the replica layer through a
// deterministic simnet partition schedule: replica 1 of each shard
// serves across the simulated network, the plan cuts shard 0's request
// link, and the fleet must (a) keep answering bit-identically with
// zero client-visible errors, (b) trip the cut replica's breaker and
// bump the epoch, and (c) heal — prober resync back to closed/current
// with another epoch bump — once the plan heals the link.
func TestFleetSimPartitionFailover(t *testing.T) {
	const shards = 2
	tr, err := NewSimTransport(shards, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := fastReplicaKnobs(Config{
		Oracle: oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3,
			SkipOverlay: true},
		Shards:   shards,
		Replicas: 2,
		Transport: func(s, r int, b Backend) Backend {
			if r != 1 {
				return b
			}
			return tr.Wrap(s, b)
		},
	})
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	nodes := f.ShardNodes(0)
	snap := f.ShardSnapshot(0)
	askAll := func(tag string) {
		t.Helper()
		for lu := 0; lu < len(nodes); lu++ {
			lv := (lu + 1) % len(nodes)
			got, err := f.Estimate(int(nodes[lu]), int(nodes[lv]))
			if err != nil {
				t.Fatalf("%s: estimate (%d,%d): %v", tag, nodes[lu], nodes[lv], err)
			}
			want, err := snap.Estimate(lu, lv)
			if err != nil {
				t.Fatal(err)
			}
			if got.Lower != want.Lower || got.Upper != want.Upper || got.OK != want.OK {
				t.Fatalf("%s: estimate (%d,%d) diverged: fleet {%v %v} snapshot {%v %v}",
					tag, nodes[lu], nodes[lv], got.Lower, got.Upper, want.Lower, want.Upper)
			}
		}
	}

	askAll("healthy")

	// Cut requests to shard 0's remote replica (injection link is
	// from=-1 → server node). Same seed, same schedule, every run.
	plan := simnet.NewFaultPlan(42)
	plan.Cut(-1, 0)
	tr.SetFaults(plan)
	epochHealthy := f.Epoch()

	deadline := time.Now().Add(10 * time.Second)
	for {
		askAll("partitioned")
		st := waitReplica(t, f, 0, 1, "observed", func(ReplicaStatus) bool { return true })
		if st.State == "open" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened under the cut; status %+v", st)
		}
	}
	if f.Epoch() == epochHealthy {
		t.Fatal("epoch did not advance when the breaker opened")
	}
	if !f.Degraded() {
		t.Fatal("fleet not degraded with a breaker open")
	}
	askAll("degraded")
	epochOpen := f.Epoch()

	// Heal: the prober's open-state retry probes succeed again, resync
	// runs, the breaker closes and the replica rejoins the roster.
	plan.Heal(-1, 0)
	waitReplica(t, f, 0, 1, "recovered", recovered)
	// resyncReplica closes the breaker, then advances the epoch (that
	// order is deliberate): the roster can read recovered between the two.
	for deadline := time.Now().Add(10 * time.Second); f.Epoch() <= epochOpen; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("epoch did not advance on recovery")
		}
	}
	if f.Degraded() {
		t.Fatalf("fleet still degraded after heal: %+v", f.ReplicaStatuses())
	}
	askAll("healed")

	st := f.Stats()
	if st.BreakerOpens < 1 || st.Resyncs < 1 {
		t.Fatalf("telemetry missed the schedule: %+v", st)
	}
	if plan.Dropped() == 0 {
		t.Fatal("fault plan dropped nothing — the cut never bit")
	}
}

// TestFleetChurnDuringFailover extends TestFleetChurnRoutedRepair with
// a replica outage: a 32-op churn trace runs against a K=2, R=2 fleet
// while replica (0,1) is killed mid-trace and restarted before the
// end. Catch-up resync must bring the stale replica to the live era,
// every shard's final snapshot must wire-hash equal a from-scratch
// standalone build, and — the strong form — killing the PRIMARY
// afterwards must leave the resynced replica answering byte-identically
// to that standalone reference.
func TestFleetChurnDuringFailover(t *testing.T) {
	cfg := fastReplicaKnobs(Config{
		Oracle:   oracle.Config{Workload: "latency", N: 32, Seed: 2, MemberStride: 3},
		Shards:   2,
		Churn:    true,
		Replicas: 2,
	})
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Concurrent readers, as in TestFleetChurnRoutedRepair: only
	// ErrNodeRange (a momentarily dormant id) is tolerable.
	var (
		stop    atomic.Bool
		readErr atomic.Pointer[string]
		wg      sync.WaitGroup
	)
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 100))
			for !stop.Load() {
				u, v := rng.Intn(f.Universe()), rng.Intn(f.Universe())
				if _, err := f.Estimate(u, v); err != nil && !errors.Is(err, oracle.ErrNodeRange) {
					msg := err.Error()
					readErr.CompareAndSwap(nil, &msg)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 32; i++ {
		switch i {
		case 8:
			if err := f.KillReplica(0, 1); err != nil {
				t.Fatal(err)
			}
		case 24:
			if err := f.RestartReplica(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			if _, err := f.AutoJoin(1); err != nil {
				t.Fatalf("op %d join: %v", i, err)
			}
		} else {
			if _, err := f.AutoLeave(1, rng); err != nil {
				t.Fatalf("op %d leave: %v", i, err)
			}
		}
		if m := readErr.Load(); m != nil {
			t.Fatalf("reader failed at op %d: %s", i, *m)
		}
	}
	stop.Store(true)
	wg.Wait()
	if m := readErr.Load(); m != nil {
		t.Fatalf("reader failed: %s", *m)
	}

	// The killed replica missed shipments for ops 8..23; resync must
	// re-ship and land it on the live era.
	waitAllRecovered(t, f)
	if f.Stats().Resyncs < 1 {
		t.Fatal("no resync recorded for the restarted replica")
	}

	for s := 0; s < f.K(); s++ {
		ref := standaloneFor(t, f, s)
		if wireHash(t, f.ShardSnapshot(s)) != wireHash(t, ref) {
			t.Fatalf("shard %d: wire hash diverged from from-scratch build after churn under failover", s)
		}
		requireIntraIdentity(t, f, s, ref)

		// Strong form: take the primary out, so every answer must come
		// from the shipped replica — still byte-identical to scratch.
		if err := f.KillReplica(s, 0); err != nil {
			t.Fatal(err)
		}
		requireIntraIdentity(t, f, s, ref)
		if err := f.RestartReplica(s, 0); err != nil {
			t.Fatal(err)
		}
		waitReplica(t, f, s, 0, "recovered", recovered)
	}
}

// TestFleetShardDownSurface proves the no-silent-fallback contract:
// with every replica of a shard killed, intra queries for that shard
// fail as ErrShardDown (the server maps this to 503 — degraded, never
// wrong), while other shards keep answering.
func TestFleetShardDownSurface(t *testing.T) {
	cfg := fastReplicaKnobs(Config{
		Oracle: oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3,
			SkipOverlay: true},
		Shards:   2,
		Replicas: 2,
	})
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for r := 0; r < 2; r++ {
		if err := f.KillReplica(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Estimate(0, 2); !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead shard: got %v, want ErrShardDown", err)
	}
	// ErrShardDown is the aggregate outcome, not a per-replica transport
	// failure: it must NOT feed back into breakers or failover.
	if IsUnavailable(ErrShardDown) {
		t.Fatal("ErrShardDown must not classify as transport-unavailable")
	}
	// Shard 1 (odd ids) is untouched.
	if _, err := f.Estimate(1, 3); err != nil {
		t.Fatalf("healthy shard: %v", err)
	}
	for r := 0; r < 2; r++ {
		if err := f.RestartReplica(0, r); err != nil {
			t.Fatal(err)
		}
	}
	waitAllRecovered(t, f)
	if _, err := f.Estimate(0, 2); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}

// TestFleetStatsReplicaSurface checks the roster/telemetry plumbing a
// chaos harness depends on: per-shard replica statuses in Stats, the
// breaker-state gauge family, and the down gauge tracking kills.
func TestFleetStatsReplicaSurface(t *testing.T) {
	cfg := fastReplicaKnobs(Config{
		Oracle: oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3,
			SkipOverlay: true},
		Shards:   2,
		Replicas: 2,
	})
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	st := f.Stats()
	if st.Replicas != 2 || st.ReplicasDown != 0 || st.Epoch < 1 {
		t.Fatalf("healthy stats: %+v", st)
	}
	for _, sh := range st.PerShard {
		if len(sh.Replicas) != 2 {
			t.Fatalf("shard stats missing replica roster: %+v", sh)
		}
	}

	if err := f.KillReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.ReplicasDown != 1 {
		t.Fatalf("down gauge: %+v", st)
	}
	var page strings.Builder
	if err := telemetry.WriteText(&page, telemetry.Group{R: f.Metrics()}); err != nil {
		t.Fatal(err)
	}
	text := page.String()
	for _, series := range []string{
		"rings_fleet_breaker_state{replica=\"s1r1\"} 1",
		"rings_fleet_replicas_down 1",
		"rings_fleet_replicas 2",
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics page missing %q:\n%s", series, text)
		}
	}
	if err := f.RestartReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	waitAllRecovered(t, f)
}

package shard

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rings/internal/churn"
	"rings/internal/metric"
	"rings/internal/oracle"
)

// fleetFamilies are the four workload families, sized so the per-shard
// standalone reference builds stay affordable under -race.
func fleetFamilies(short bool) []Config {
	cfgs := []Config{
		{Oracle: oracle.Config{Workload: "latency", N: 45, Seed: 3, MemberStride: 3}, Shards: 3},
		{Oracle: oracle.Config{Workload: "cube", N: 36, Seed: 5, MemberStride: 4}, Shards: 3},
		{Oracle: oracle.Config{Workload: "expline", N: 33, LogAspect: 40, MemberStride: 4}, Shards: 3},
		{Oracle: oracle.Config{Workload: "grid", Side: 6, MemberStride: 5}, Shards: 3},
	}
	if short {
		cfgs = cfgs[:1]
	}
	return cfgs
}

// standaloneFor builds the from-scratch reference engine input for one
// shard: the same config recipe over the same subspace the fleet
// built, through the same BuildSnapshotOver entry point.
func standaloneFor(t testing.TB, f *Fleet, s int) *oracle.Snapshot {
	t.Helper()
	var (
		cfg   oracle.Config
		space metric.Space
	)
	if f.shards[s].mut != nil {
		cfg = f.shards[s].mut.Config().Oracle
		space = f.shards[s].mut.FrozenSpace()
	} else {
		cfg = f.cfg.Oracle
		nodes := f.ShardNodes(s)
		cfg.N = len(nodes)
		space = metric.NewSubspace(f.base, nodes)
	}
	snap, err := oracle.BuildSnapshotOver(cfg, space, fmt.Sprintf("standalone-shard%d", s))
	if err != nil {
		t.Fatalf("standalone build shard %d: %v", s, err)
	}
	return snap
}

// requireIntraIdentity compares every fleet answer for shard s against
// the standalone snapshot: estimates over all intra pairs, nearest for
// every target, routes over a deterministic pair sample.
func requireIntraIdentity(t testing.TB, f *Fleet, s int, ref *oracle.Snapshot) {
	t.Helper()
	nodes := f.ShardNodes(s)
	n := len(nodes)
	if ref.N() != n {
		t.Fatalf("shard %d: fleet n=%d standalone n=%d", s, n, ref.N())
	}
	for lu := 0; lu < n; lu++ {
		for lv := 0; lv < n; lv++ {
			gu, gv := int(nodes[lu]), int(nodes[lv])
			got, err := f.Estimate(gu, gv)
			if err != nil {
				t.Fatalf("fleet estimate (%d,%d): %v", gu, gv, err)
			}
			want, err := ref.Estimate(lu, lv)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cross || got.UShard != s || got.VShard != s {
				t.Fatalf("intra pair (%d,%d) attributed %+v", gu, gv, got)
			}
			if got.Lower != want.Lower || got.Upper != want.Upper || got.OK != want.OK {
				t.Fatalf("estimate (%d,%d): fleet {%v %v %v} standalone {%v %v %v}",
					gu, gv, got.Lower, got.Upper, got.OK, want.Lower, want.Upper, want.OK)
			}
		}
	}
	if ref.Overlay == nil {
		return
	}
	for lt := 0; lt < n; lt++ {
		gt := int(nodes[lt])
		got, err := f.Nearest(gt)
		if err != nil {
			t.Fatalf("fleet nearest %d: %v", gt, err)
		}
		want, err := ref.Nearest(lt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Member != int(nodes[want.Member]) || got.Dist != want.Dist || got.Hops != want.Hops {
			t.Fatalf("nearest %d: fleet %+v standalone %+v", gt, got, want)
		}
		for i, l := range want.Path {
			if got.Path[i] != int(nodes[l]) {
				t.Fatalf("nearest %d path[%d]: %d != %d", gt, i, got.Path[i], nodes[l])
			}
		}
	}
	if !ref.Routable() {
		return
	}
	rng := rand.New(rand.NewSource(int64(s) + 11))
	for q := 0; q < 24; q++ {
		ls, ld := rng.Intn(n), rng.Intn(n)
		gs, gd := int(nodes[ls]), int(nodes[ld])
		got, err := f.Route(gs, gd)
		if err != nil {
			t.Fatalf("fleet route (%d,%d): %v", gs, gd, err)
		}
		want, err := ref.Route(ls, ld)
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != want.Length || got.Dist != want.Dist || got.Stretch != want.Stretch || got.Hops != want.Hops {
			t.Fatalf("route (%d,%d): fleet %+v standalone %+v", gs, gd, got, want)
		}
		for i, l := range want.Path {
			if got.Path[i] != int(nodes[l]) {
				t.Fatalf("route (%d,%d) path[%d]: %d != %d", gs, gd, i, got.Path[i], nodes[l])
			}
		}
	}
}

// wireHash hashes every wire-encoded label of a snapshot (the churn
// package's byte-identity currency).
func wireHash(t testing.TB, snap *oracle.Snapshot) [32]byte {
	t.Helper()
	wire, err := snap.LabelWire()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for u, lab := range snap.Labels {
		buf, bits, err := wire.Encode(lab)
		if err != nil {
			t.Fatalf("encode label %d: %v", u, err)
		}
		fmt.Fprintf(h, "%d:%d:", u, bits)
		h.Write(buf)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestFleetIntraByteIdentity is the gold standard: every intra-shard
// estimate/nearest/route answer equals a standalone engine built over
// that shard's subspace, on all four workload families.
func TestFleetIntraByteIdentity(t *testing.T) {
	for _, cfg := range fleetFamilies(testing.Short()) {
		cfg := cfg
		t.Run(cfg.Oracle.Workload, func(t *testing.T) {
			t.Parallel()
			f, err := NewFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < f.K(); s++ {
				ref := standaloneFor(t, f, s)
				requireIntraIdentity(t, f, s, ref)
				if h1, h2 := wireHash(t, f.ShardSnapshot(s)), wireHash(t, ref); h1 != h2 {
					t.Fatalf("shard %d wire labels differ from standalone build", s)
				}
			}
		})
	}
}

// TestFleetCrossShardSandwich checks the beacon tier's per-pair
// certificate on every family: lower <= d <= upper against the true
// base distance, symmetry, and shard attribution.
func TestFleetCrossShardSandwich(t *testing.T) {
	for _, cfg := range fleetFamilies(testing.Short()) {
		cfg := cfg
		t.Run(cfg.Oracle.Workload, func(t *testing.T) {
			t.Parallel()
			f, err := NewFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := f.Universe()
			rng := rand.New(rand.NewSource(7))
			checked := 0
			for checked < 200 {
				u, v := rng.Intn(n), rng.Intn(n)
				if owner(u, f.k) == owner(v, f.k) {
					continue
				}
				checked++
				res, err := f.Estimate(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Cross || res.UShard == res.VShard {
					t.Fatalf("cross pair (%d,%d) attributed %+v", u, v, res)
				}
				d := f.base.Dist(u, v)
				if res.Lower > d || d > res.Upper {
					t.Fatalf("sandwich violated for (%d,%d): lower=%v d=%v upper=%v", u, v, res.Lower, d, res.Upper)
				}
				back, err := f.Estimate(v, u)
				if err != nil {
					t.Fatal(err)
				}
				if back.Lower != res.Lower || back.Upper != res.Upper {
					t.Fatalf("asymmetric cross estimate (%d,%d): %v/%v vs %v/%v",
						u, v, res.Lower, res.Upper, back.Lower, back.Upper)
				}
			}
		})
	}
}

// TestFleetChurnRoutedRepair drives mutations through the fleet while
// concurrent readers hammer every query endpoint: after each commit
// the mutated shard must still answer byte-identically to a
// from-scratch standalone build on its surviving subspace, and every
// untouched shard must keep its snapshot pointer (repair is localized
// to the owning shard by construction). Run under -race this is the
// swap-safety proof for the sharded serving layer.
func TestFleetChurnRoutedRepair(t *testing.T) {
	f, err := NewFleet(Config{
		Oracle: oracle.Config{Workload: "latency", N: 32, Seed: 2, MemberStride: 3, SkipRouting: true},
		Shards: 2,
		Churn:  true,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 100))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := rng.Intn(f.Universe()), rng.Intn(f.Universe())
				if _, err := f.Estimate(u, v); err != nil && !errors.Is(err, oracle.ErrNodeRange) {
					t.Errorf("reader estimate (%d,%d): %v", u, v, err)
					return
				}
				if _, err := f.Nearest(u); err != nil && !errors.Is(err, oracle.ErrNodeRange) {
					t.Errorf("reader nearest %d: %v", u, err)
					return
				}
				reads.Add(1)
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(17))
	ops := 10
	if testing.Short() {
		ops = 4
	}
	for i := 0; i < ops; i++ {
		before := make([]*oracle.Snapshot, f.K())
		for s := range before {
			before[s] = f.ShardSnapshot(s)
		}
		var commits []ChurnCommit
		var err error
		if i%2 == 0 {
			commits, err = f.AutoJoin(1)
		} else {
			commits, err = f.AutoLeave(1, rng)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if len(commits) != 1 {
			t.Fatalf("op %d: %d commits", i, len(commits))
		}
		touched := commits[0].Shard
		for s := 0; s < f.K(); s++ {
			if s == touched {
				if f.ShardSnapshot(s) == before[s] {
					t.Fatalf("op %d: touched shard %d kept its snapshot", i, s)
				}
				continue
			}
			if f.ShardSnapshot(s) != before[s] {
				t.Fatalf("op %d: untouched shard %d swapped", i, s)
			}
		}
		ref := standaloneFor(t, f, touched)
		requireIntraIdentity(t, f, touched, ref)
		if h1, h2 := wireHash(t, f.ShardSnapshot(touched)), wireHash(t, ref); h1 != h2 {
			t.Fatalf("op %d: shard %d wire labels diverged from standalone build", i, touched)
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}
}

// TestFleetBeaconVectorMaintenance pins the churn contract of the
// beacon tier: a commit computes fresh distances only for the joining
// node — every survivor keeps its vector by pointer — and a joiner's
// vector equals a from-scratch measurement.
func TestFleetBeaconVectorMaintenance(t *testing.T) {
	f, err := NewFleet(Config{
		Oracle: oracle.Config{Workload: "cube", N: 24, Seed: 4, SkipRouting: true, SkipOverlay: true},
		Shards: 2,
		Churn:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	commits, err := f.AutoJoin(1)
	if err != nil || len(commits) != 1 {
		t.Fatalf("join: %v (%d commits)", err, len(commits))
	}
	s := commits[0].Shard
	joined := commits[0].Bases[0]
	prevByGlobal := map[int32][]float64{}
	st := f.shards[s].load()
	for l, g := range st.global {
		prevByGlobal[g] = st.bvec[l]
	}
	fresh := f.tier.vector(joined)
	got := st.bvec[st.local[joined]]
	for j := range fresh {
		if got[j] != fresh[j] {
			t.Fatalf("joiner vector[%d] = %v, fresh measurement %v", j, got[j], fresh[j])
		}
	}

	// A leave must reuse every survivor row by pointer.
	rng := rand.New(rand.NewSource(9))
	commits, err = f.AutoLeave(1, rng)
	if err != nil || len(commits) != 1 {
		t.Fatalf("leave: %v (%d commits)", err, len(commits))
	}
	s = commits[0].Shard
	left := commits[0].Bases[0]
	st = f.shards[s].load()
	prev := prevByGlobal
	if commits[0].Shard != s {
		t.Fatalf("commit shard mismatch")
	}
	for l, g := range st.global {
		old, ok := prev[g]
		if !ok {
			continue // different shard than the join probe; vectors new to the map
		}
		if int(g) == left {
			t.Fatalf("departed node %d still active", left)
		}
		if len(old) > 0 && &st.bvec[l][0] != &old[0] {
			t.Fatalf("survivor %d got a recomputed beacon vector", g)
		}
	}
}

// TestFleetEstimateBatchConsistency checks the batch path: per-shard
// version consistency within one call, agreement with the single
// estimate path, and whole-batch failure on an invalid pair.
func TestFleetEstimateBatchConsistency(t *testing.T) {
	f, err := NewFleet(Config{
		Oracle: oracle.Config{Workload: "latency", N: 30, Seed: 6, MemberStride: 3, SkipRouting: true},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var pairs []oracle.Pair
	for i := 0; i < 64; i++ {
		pairs = append(pairs, oracle.Pair{U: rng.Intn(f.N()), V: rng.Intn(f.N())})
	}
	got, err := f.EstimateBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	versionOf := map[int]int64{}
	for i, res := range got {
		if v, seen := versionOf[res.UShard]; seen && !res.Cross && v != res.Version {
			t.Fatalf("pair %d: shard %d answered version %d after %d in one batch", i, res.UShard, res.Version, v)
		}
		if !res.Cross {
			versionOf[res.UShard] = res.Version
		}
		single, err := f.Estimate(pairs[i].U, pairs[i].V)
		if err != nil {
			t.Fatal(err)
		}
		if single.Lower != res.Lower || single.Upper != res.Upper || single.Cross != res.Cross {
			t.Fatalf("pair %d: batch %+v single %+v", i, res, single)
		}
	}
	if _, err := f.EstimateBatch([]oracle.Pair{{U: 0, V: f.Universe() + 5}}); !errors.Is(err, oracle.ErrNodeRange) {
		t.Fatalf("invalid pair error = %v", err)
	}
}

// TestFleetChurnBounds: joining at capacity and leaving at the floor
// return empty commit lists, and explicit ops route by ownership.
func TestFleetChurnBounds(t *testing.T) {
	f, err := NewFleet(Config{
		Oracle:        oracle.Config{Workload: "cube", N: 12, Seed: 8, SkipRouting: true, SkipOverlay: true},
		Shards:        2,
		Churn:         true,
		ChurnCapacity: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill to capacity.
	commits, err := f.AutoJoin(f.Universe())
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != f.Universe() {
		t.Fatalf("n=%d after filling capacity %d", f.N(), f.Universe())
	}
	if commits, err = f.AutoJoin(1); err != nil || len(commits) != 0 {
		t.Fatalf("join at capacity: commits=%d err=%v", len(commits), err)
	}
	// Explicit leave routes to the owner.
	base := 5
	commits, err = f.Apply([]churn.Op{{Kind: churn.Leave, Base: base}})
	if err != nil || len(commits) != 1 {
		t.Fatalf("explicit leave: %v (%d commits)", err, len(commits))
	}
	if want := owner(base, f.K()); commits[0].Shard != want {
		t.Fatalf("leave of %d routed to shard %d, owner is %d", base, commits[0].Shard, want)
	}
	// Drain to the floor; further leaves return empty.
	rng := rand.New(rand.NewSource(3))
	if _, err := f.AutoLeave(f.Universe(), rng); err != nil {
		t.Fatal(err)
	}
	commits, err = f.AutoLeave(1, rng)
	if err != nil || len(commits) != 0 {
		t.Fatalf("leave at floor: commits=%d err=%v", len(commits), err)
	}
	for s := 0; s < f.K(); s++ {
		if f.ShardN(s) != 2 {
			t.Fatalf("shard %d drained to %d, floor is 2", s, f.ShardN(s))
		}
	}
}

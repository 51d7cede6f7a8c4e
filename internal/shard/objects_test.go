package shard

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rings/internal/churn"
	"rings/internal/metric"
	"rings/internal/objects"
	"rings/internal/oracle"
	"rings/internal/workload"
)

// bruteNearestObject is the fleet-wide reference: obj's replicas
// gathered from every shard directory and sorted, each measured in base,
// ascending global ids with strict improvement (ties to the lowest id).
func bruteNearestObject(f *Fleet, base metric.Space, obj string, g int) (int, float64) {
	var all []int
	for _, unit := range f.shards {
		all = append(all, unit.dir.Replicas(obj)...)
	}
	sort.Ints(all)
	best, bestD := -1, 0.0
	for _, r := range all {
		if d := base.Dist(g, r); best < 0 || d < bestD {
			best, bestD = r, d
		}
	}
	return best, bestD
}

// TestFleetObjectsBasics pins the owner-routed mutation API and the
// cross-shard lookup path on a static fleet: every lookup answer must
// equal a brute force over the base space, remote attribution must be
// truthful, and the error taxonomy must survive the shard split.
func TestFleetObjectsBasics(t *testing.T) {
	spec := workload.MetricSpec{Name: "cube", N: 24, Seed: 4}
	f, err := NewFleet(Config{
		Oracle: oracle.Config{Workload: spec.Name, N: spec.N, Seed: spec.Seed, MemberStride: 4},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, _, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	// Replicas land on shards 0 and 1 only; lookups from shard 2 are
	// always remote.
	for _, g := range []int{0, 3, 7} {
		if _, err := f.PublishObject("x", g); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := f.PublishObject("x", 3); err != nil || n != 3 {
		t.Fatalf("re-publish: n=%d err=%v", n, err)
	}
	for g := 0; g < f.Universe(); g++ {
		res, err := f.LookupObject("x", g)
		if err != nil {
			t.Fatalf("lookup from %d: %v", g, err)
		}
		wantNode, wantDist := bruteNearestObject(f, base, "x", g)
		if res.Node != wantNode || math.Float64bits(res.Dist) != math.Float64bits(wantDist) {
			t.Fatalf("lookup from %d: (%d, %v), brute force (%d, %v)", g, res.Node, res.Dist, wantNode, wantDist)
		}
		if res.Remote != (owner(res.Node, f.k) != owner(g, f.k)) {
			t.Fatalf("lookup from %d: remote=%v for replica %d", g, res.Remote, res.Node)
		}
		if res.Replicas != 3 {
			t.Fatalf("lookup from %d: %d replicas", g, res.Replicas)
		}
		if want := 3 - len(f.shards[owner(g, f.k)].dir.Replicas("x")); res.Refined != want {
			t.Fatalf("lookup from %d: %d remote replicas refined, want %d", g, res.Refined, want)
		}
	}
	if _, err := f.LookupObject("nope", 0); !errors.Is(err, objects.ErrUnknownObject) {
		t.Fatalf("unknown lookup: %v", err)
	}
	if _, err := f.LookupObject("x", 99); !errors.Is(err, oracle.ErrNodeRange) {
		t.Fatalf("out-of-range origin: %v", err)
	}
	// Unpublish from a node in a shard that holds other replicas of x,
	// but not on that node: must be ErrNoReplica, not unknown-object.
	if _, err := f.UnpublishObject("x", 6); !errors.Is(err, objects.ErrNoReplica) {
		t.Fatalf("no-replica unpublish: %v", err)
	}
	// Same from a shard whose directory has never seen x.
	if _, err := f.UnpublishObject("x", 2); !errors.Is(err, objects.ErrNoReplica) {
		t.Fatalf("cross-shard no-replica unpublish: %v", err)
	}
	if _, err := f.UnpublishObject("nope", 2); !errors.Is(err, objects.ErrUnknownObject) {
		t.Fatalf("unknown unpublish: %v", err)
	}
	if n, err := f.UnpublishObject("x", 7); err != nil || n != 2 {
		t.Fatalf("unpublish: n=%d err=%v", n, err)
	}
	st := f.ObjectStats()
	if !st.Ready || st.Objects != 1 || st.Replicas != 2 || st.Publishes != 3 || st.Unpublishes != 1 {
		t.Fatalf("object stats: %+v", st)
	}
	if st.Lookups != int64(f.Universe()) {
		t.Fatalf("object stats counters: %+v", st)
	}
	if f.ObjectsMetrics() == nil {
		t.Fatal("no objects registry")
	}
}

// fleetGoldTrace generates a 64-op churn schedule valid in BOTH
// deployments: leaves keep the global count above the single engine's
// MinNodes floor AND every shard above the fleet's per-shard floor, so
// one op sequence drives both side by side.
func fleetGoldTrace(rng *rand.Rand, universe, k, minGlobal, minShard int, active map[int]bool) []churn.Op {
	perShard := make([]int, k)
	for g := range active {
		perShard[owner(g, k)]++
	}
	var ops []churn.Op
	for len(ops) < 64 {
		join := rng.Intn(2) == 0
		if !join {
			var eligible []int
			if len(active) > minGlobal {
				for g := range active {
					if perShard[owner(g, k)] > minShard {
						eligible = append(eligible, g)
					}
				}
			}
			if len(eligible) > 0 {
				sort.Ints(eligible)
				g := eligible[rng.Intn(len(eligible))]
				ops = append(ops, churn.Op{Kind: churn.Leave, Base: g})
				delete(active, g)
				perShard[owner(g, k)]--
				continue
			}
			join = true
		}
		var dormant []int
		for g := 0; g < universe; g++ {
			if !active[g] {
				dormant = append(dormant, g)
			}
		}
		if len(dormant) == 0 {
			continue
		}
		g := dormant[rng.Intn(len(dormant))]
		ops = append(ops, churn.Op{Kind: churn.Join, Base: g})
		active[g] = true
		perShard[owner(g, k)]++
	}
	return ops
}

// TestFleetObjectsChurnGoldStandard is the fleet half of the tentpole's
// acceptance bar: one 64-op churn trace with 32 published objects
// drives a K=4 fleet and a single-engine directory side by side, and
// after EVERY op the two deployments agree byte-for-byte — identical
// replica tables (the repair policies are the same policy) and
// identical Lookup answers from every surviving origin, both equal to
// a brute force over the base space.
func TestFleetObjectsChurnGoldStandard(t *testing.T) {
	cfg := oracle.Config{Workload: "grid", Side: 6, MemberStride: 5, SkipOverlay: true}
	f, err := NewFleet(Config{Oracle: cfg, Shards: 4, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	mut, err := churn.NewMutator(churn.Config{Oracle: cfg})
	if err != nil {
		t.Fatal(err)
	}
	base := mut.FrozenSpace().Base()
	single := objects.New(mut.Snapshot(), objects.Config{BaseDist: base.Dist})

	active := map[int]bool{}
	for _, g := range mut.Snapshot().Perm {
		active[int(g)] = true
	}
	if f.N() != len(active) {
		t.Fatalf("fleet starts with %d nodes, single with %d", f.N(), len(active))
	}

	// Publish 32 objects with 1..3 replicas to BOTH deployments.
	rng := rand.New(rand.NewSource(17))
	actives := sortedInts(active)
	names := make([]string, 32)
	for i := range names {
		names[i] = goldName(i)
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			g := actives[rng.Intn(len(actives))]
			if _, err := single.Publish(names[i], g); err != nil {
				t.Fatal(err)
			}
			if _, err := f.PublishObject(names[i], g); err != nil {
				t.Fatal(err)
			}
		}
	}

	ops := fleetGoldTrace(rand.New(rand.NewSource(29)), f.Universe(), f.k,
		mut.Config().MinNodes, f.cfg.MinShardNodes, copyActive(active))
	for step, op := range ops {
		snap, err := mut.Apply(op)
		if err != nil {
			t.Fatalf("step %d (single): %v", step, err)
		}
		single.SetSnapshot(snap)
		if _, err := f.Apply([]churn.Op{op}); err != nil {
			t.Fatalf("step %d (fleet): %v", step, err)
		}
		if op.Kind == churn.Join {
			active[op.Base] = true
		} else {
			delete(active, op.Base)
		}

		// (a) Identical replica tables.
		for _, name := range names {
			want := single.Replicas(name)
			var got []int
			for _, unit := range f.shards {
				got = append(got, unit.dir.Replicas(name)...)
			}
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("step %d: %s fleet replicas %v, single %v", step, name, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: %s fleet replicas %v, single %v", step, name, got, want)
				}
			}
		}
		// (b) Identical lookups from every surviving origin, equal to
		// the brute force.
		for _, g := range sortedInts(active) {
			for _, name := range names {
				sres, serr := single.Lookup(name, g)
				fres, ferr := f.LookupObject(name, g)
				if serr != nil || ferr != nil {
					if errors.Is(serr, objects.ErrUnknownObject) && errors.Is(ferr, objects.ErrUnknownObject) {
						continue // every replica churned away in both
					}
					t.Fatalf("step %d: lookup %s from %d: single err %v, fleet err %v", step, name, g, serr, ferr)
				}
				if sres.Node != fres.Node || math.Float64bits(sres.Dist) != math.Float64bits(fres.Dist) {
					t.Fatalf("step %d: lookup %s from %d: single (%d, %v), fleet (%d, %v)",
						step, name, g, sres.Node, sres.Dist, fres.Node, fres.Dist)
				}
				tn, td := bruteNearestObject(f, base, name, g)
				if tn != fres.Node || math.Float64bits(td) != math.Float64bits(fres.Dist) {
					t.Fatalf("step %d: fleet lookup %s from %d: (%d, %v), brute force (%d, %v)",
						step, name, g, fres.Node, fres.Dist, tn, td)
				}
			}
		}
	}
}

func goldName(i int) string {
	return "g-" + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func copyActive(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestFleetMoveAllocations pins what a fleet object move allocates — an
// unpublish and a publish of one replica between two nodes of the same
// shard, as ringperf's fleet-mixed moves do — on a 4-shard fleet whose
// every directory holds two replicas, so none forgets the object midway.
// The directories move a replica in place, and the fleet-wide replica
// counts both calls return are sums of each directory's count, not
// copies of its replica slice (9 allocations a move here when they
// were).
func TestFleetMoveAllocations(t *testing.T) {
	f, err := NewFleet(Config{
		Oracle: oracle.Config{Workload: "cube", N: 48, Seed: 4, SkipOverlay: true},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	held := 2 * f.k
	for g := range held {
		if _, err := f.PublishObject("obj", g); err != nil {
			t.Fatal(err)
		}
	}
	from, to := 1, 1+held // both on shard 1, beside its replica on 1+k
	allocs := testing.AllocsPerRun(200, func() {
		if n, err := f.UnpublishObject("obj", from); err != nil || n != held-1 {
			t.Fatalf("unpublish from %d: %d replicas, %v", from, n, err)
		}
		if n, err := f.PublishObject("obj", to); err != nil || n != held {
			t.Fatalf("publish on %d: %d replicas, %v", to, n, err)
		}
		from, to = to, from
	})
	if allocs != 0 {
		t.Fatalf("a fleet move allocates %v times, want 0", allocs)
	}
}

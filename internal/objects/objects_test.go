package objects_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rings/internal/churn"
	"rings/internal/objects"
	"rings/internal/oracle"
	"rings/internal/workload"
)

// staticFamilies covers the four workload families at exactness-test
// scale.
func staticFamilies() []oracle.Config {
	return []oracle.Config{
		{Workload: "latency", N: 40, Seed: 3, MemberStride: 3, SkipRouting: true},
		{Workload: "cube", N: 36, Seed: 5, MemberStride: 4, SkipRouting: true},
		{Workload: "expline", N: 32, LogAspect: 40, MemberStride: 4, SkipRouting: true},
		{Workload: "grid", Side: 6, MemberStride: 5, SkipRouting: true},
	}
}

// bruteNearest is the reference policy: ascending replicas, strict
// improvement (ties to the lowest id).
func bruteNearest(snap *oracle.Snapshot, replicas []int, intOf map[int]int, target int) (int, float64) {
	best, bestD := -1, 0.0
	for _, s := range replicas {
		if d := snap.Idx.Dist(intOf[s], target); best < 0 || d < bestD {
			best, bestD = s, d
		}
	}
	return best, bestD
}

// TestLookupExactStatic pins the exactness contract on every family:
// for random replica sets, Lookup from every origin answers the same
// (node, dist) as the brute-force scan, bit for bit, and the miss
// counter stays zero.
func TestLookupExactStatic(t *testing.T) {
	for _, cfg := range staticFamilies() {
		cfg := cfg
		t.Run(cfg.Workload, func(t *testing.T) {
			t.Parallel()
			snap, err := oracle.BuildSnapshot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := objects.New(snap, objects.Config{Seed: 7})
			n := snap.N()
			identity := make(map[int]int, n)
			for u := 0; u < n; u++ {
				identity[u] = u
			}
			rng := rand.New(rand.NewSource(11))
			want := map[string][]int{}
			for i := 0; i < 24; i++ {
				name := string(rune('a'+i%26)) + "-obj"
				k := 1 + rng.Intn(4)
				for j := 0; j < k; j++ {
					node := rng.Intn(n)
					if _, err := d.Publish(name, node); err != nil {
						t.Fatal(err)
					}
					found := false
					for _, r := range want[name] {
						if r == node {
							found = true
						}
					}
					if !found {
						want[name] = append(want[name], node)
					}
				}
			}
			for name, reps := range want {
				sort.Ints(reps)
				got := d.Replicas(name)
				if len(got) != len(reps) {
					t.Fatalf("%s: %d replicas, want %d", name, len(got), len(reps))
				}
				for i := range reps {
					if got[i] != reps[i] {
						t.Fatalf("%s: replicas %v, want %v", name, got, reps)
					}
				}
				for from := 0; from < n; from++ {
					res, err := d.Lookup(name, from)
					if err != nil {
						t.Fatalf("lookup %s from %d: %v", name, from, err)
					}
					wantNode, wantDist := bruteNearest(snap, reps, identity, from)
					if res.Node != wantNode || math.Float64bits(res.Dist) != math.Float64bits(wantDist) {
						t.Fatalf("lookup %s from %d: (%d, %v), brute force (%d, %v)",
							name, from, res.Node, res.Dist, wantNode, wantDist)
					}
					tn, td, err := d.TrueNearest(name, from)
					if err != nil || tn != wantNode || math.Float64bits(td) != math.Float64bits(wantDist) {
						t.Fatalf("true-nearest %s from %d: (%d, %v, %v)", name, from, tn, td, err)
					}
				}
			}
			if st := d.Stats(); st.Misses != 0 {
				t.Fatalf("%d certified misses", st.Misses)
			}
		})
	}
}

// TestPublishUnpublishSemantics pins the mutation API: idempotent
// publish, machine-distinguishable errors, object deletion on the last
// unpublish.
func TestPublishUnpublishSemantics(t *testing.T) {
	snap, err := oracle.BuildSnapshot(oracle.Config{Workload: "cube", N: 16, Seed: 2, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	d := objects.New(snap, objects.Config{})
	if _, err := d.Publish("", 0); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := d.Publish("x", 99); !errors.Is(err, oracle.ErrNodeRange) {
		t.Fatalf("publish out of range: %v", err)
	}
	if n, err := d.Publish("x", 3); err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	if n, err := d.Publish("x", 3); err != nil || n != 1 {
		t.Fatalf("re-publish not idempotent: n=%d err=%v", n, err)
	}
	if n, err := d.Publish("x", 7); err != nil || n != 2 {
		t.Fatalf("second replica: n=%d err=%v", n, err)
	}
	if _, err := d.Lookup("y", 0); !errors.Is(err, objects.ErrUnknownObject) {
		t.Fatalf("unknown lookup: %v", err)
	}
	if _, err := d.Lookup("x", 99); !errors.Is(err, oracle.ErrNodeRange) {
		t.Fatalf("origin out of range: %v", err)
	}
	if _, err := d.Unpublish("y", 0); !errors.Is(err, objects.ErrUnknownObject) {
		t.Fatalf("unknown unpublish: %v", err)
	}
	if _, err := d.Unpublish("x", 5); !errors.Is(err, objects.ErrNoReplica) {
		t.Fatalf("no-replica unpublish: %v", err)
	}
	if n, err := d.Unpublish("x", 3); err != nil || n != 1 {
		t.Fatalf("unpublish: n=%d err=%v", n, err)
	}
	if n, err := d.Unpublish("x", 7); err != nil || n != 0 {
		t.Fatalf("last unpublish: n=%d err=%v", n, err)
	}
	if d.Has("x") {
		t.Fatal("object survived its last unpublish")
	}
	st := d.Stats()
	if st.Objects != 0 || st.Publishes != 2 || st.Unpublishes != 2 || st.NotFound != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestNotReadyFlatOnly pins the warm-start gap: a directory over a
// flat-only snapshot (no ball index yet) refuses object operations with
// ErrNotReady.
func TestNotReadyFlatOnly(t *testing.T) {
	snap, err := oracle.BuildSnapshot(oracle.Config{Workload: "cube", N: 12, Seed: 4, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	// The flat-only form is what a warm start opens: the persisted arena,
	// no ball index.
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	flat, err := oracle.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	d := objects.New(flat, objects.Config{})
	if d.Ready() {
		t.Fatal("flat-only directory claims ready")
	}
	if _, err := d.Publish("x", 0); !errors.Is(err, objects.ErrNotReady) {
		t.Fatalf("publish: %v", err)
	}
	if _, err := d.Lookup("x", 0); !errors.Is(err, objects.ErrNotReady) {
		t.Fatalf("lookup: %v", err)
	}
	// Hydration = installing the indexed snapshot.
	d.SetSnapshot(snap)
	if !d.Ready() {
		t.Fatal("indexed directory not ready")
	}
	if _, err := d.Publish("x", 0); err != nil {
		t.Fatal(err)
	}
}

// goldFamilies are the churn gold-standard workloads (one under
// -short).
func goldFamilies(short bool) []oracle.Config {
	cfgs := []oracle.Config{
		{Workload: "grid", Side: 6, MemberStride: 5, SkipRouting: true, SkipOverlay: true},
		{Workload: "cube", N: 24, Seed: 5, MemberStride: 4, SkipRouting: true, SkipOverlay: true},
	}
	if short {
		cfgs = cfgs[:1]
	}
	return cfgs
}

// TestChurnGoldStandard is the single-engine half of the tentpole's
// acceptance bar: 64 churn ops over a directory holding 32 objects,
// and after EVERY op, (a) the replica table matches an independent
// model applying the next-nearest-survivor policy, and (b) Lookup from
// every surviving origin answers exactly what the brute-force scan
// over the surviving replicas answers, bit for bit.
func TestChurnGoldStandard(t *testing.T) {
	for _, cfg := range goldFamilies(testing.Short()) {
		cfg := cfg
		t.Run(cfg.Workload, func(t *testing.T) {
			t.Parallel()
			mut, err := churn.NewMutator(churn.Config{Oracle: cfg})
			if err != nil {
				t.Fatal(err)
			}
			base := mut.FrozenSpace().Base()
			snap := mut.Snapshot()
			d := objects.New(snap, objects.Config{Seed: 9, BaseDist: base.Dist})
			universe := d.Universe()

			// Active stable ids, maintained alongside the trace.
			active := map[int]bool{}
			for _, s := range snap.Perm {
				active[int(s)] = true
			}

			// Seed 32 objects with 1..3 replicas on active nodes; model
			// keeps the expected replica table.
			rng := rand.New(rand.NewSource(13))
			actives := sortedKeys(active)
			model := map[string][]int{}
			names := make([]string, 32)
			for i := range names {
				names[i] = objName(i)
				k := 1 + rng.Intn(3)
				for j := 0; j < k; j++ {
					node := actives[rng.Intn(len(actives))]
					if _, err := d.Publish(names[i], node); err != nil {
						t.Fatal(err)
					}
					model[names[i]] = insertUnique(model[names[i]], node)
				}
			}

			spec := workload.MetricSpec{
				Name: cfg.Workload, N: cfg.N, Side: cfg.Side,
				LogAspect: cfg.LogAspect, Seed: cfg.Seed,
			}
			trace, err := workload.GenerateChurnTrace(spec, mut.Config().Capacity, workload.ChurnTraceConfig{
				Ops: 64, Seed: 21, MinNodes: mut.Config().MinNodes,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantRepublishes := int64(0)
			for step, op := range trace.Ops {
				kind := churn.Leave
				if op.Join {
					kind = churn.Join
				}
				snap, err := mut.Apply(churn.Op{Kind: kind, Base: op.Base})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if op.Join {
					active[op.Base] = true
				} else {
					delete(active, op.Base)
				}
				recs := d.SetSnapshot(snap)

				// Model repair: same policy, same deterministic order.
				if !op.Join {
					for _, name := range sortedNames(model) {
						reps := model[name]
						i := sort.SearchInts(reps, op.Base)
						if i >= len(reps) || reps[i] != op.Base {
							continue
						}
						reps = append(reps[:i], reps[i+1:]...)
						best, bestD := -1, 0.0
						for _, c := range sortedKeys(active) {
							if contains(reps, c) {
								continue
							}
							if dc := base.Dist(op.Base, c); best < 0 || dc < bestD {
								best, bestD = c, dc
							}
						}
						if best >= 0 {
							reps = insertUnique(reps, best)
							wantRepublishes++
						}
						if len(reps) == 0 {
							delete(model, name)
						} else {
							model[name] = reps
						}
					}
				} else if len(recs) != 0 {
					t.Fatalf("step %d: join produced %d republish records", step, len(recs))
				}

				// (a) The replica table matches the model.
				for _, name := range sortedNames(model) {
					got := d.Replicas(name)
					if !equalInts(got, model[name]) {
						t.Fatalf("step %d: %s replicas %v, model %v", step, name, got, model[name])
					}
				}
				// (b) Lookup from every origin == brute force, bit for bit.
				intOf := map[int]int{}
				for l, s := range snap.Perm {
					intOf[int(s)] = l
				}
				for from := 0; from < universe; from++ {
					if !active[from] {
						continue
					}
					for _, name := range sortedNames(model) {
						res, err := d.Lookup(name, from)
						if err != nil {
							t.Fatalf("step %d: lookup %s from %d: %v", step, name, from, err)
						}
						wantNode, wantDist := bruteNearest(snap, model[name], intOf, intOf[from])
						if res.Node != wantNode || math.Float64bits(res.Dist) != math.Float64bits(wantDist) {
							t.Fatalf("step %d: lookup %s from %d: (%d, %v), brute force (%d, %v)",
								step, name, from, res.Node, res.Dist, wantNode, wantDist)
						}
					}
				}
			}
			st := d.Stats()
			if st.Misses != 0 {
				t.Fatalf("%d certified misses across the trace", st.Misses)
			}
			if st.Republishes != wantRepublishes {
				t.Fatalf("%d republishes, model expects %d", st.Republishes, wantRepublishes)
			}
		})
	}
}

func objName(i int) string {
	return "obj-" + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedNames(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func insertUnique(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func contains(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

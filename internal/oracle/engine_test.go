package oracle

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rings/internal/distlabel"
	"rings/internal/routing"
)

// testConfig is the small, fully-featured config most tests build:
// Theorem 3.4 labels, tuned rings (verified per instance), overlay and
// router included.
func testConfig(seed int64) Config {
	return Config{
		Workload:     "cube",
		N:            64,
		Seed:         seed,
		Delta:        0.5,
		Scheme:       SchemeLabels,
		Profile:      ProfileTuned,
		Verify:       true,
		MemberStride: 4,
	}
}

func buildTestSnapshot(t testing.TB, seed int64) *Snapshot {
	t.Helper()
	snap, err := BuildSnapshot(testConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestBuildSnapshotVariants(t *testing.T) {
	snap := buildTestSnapshot(t, 1)
	if snap.Scheme == nil || snap.Labels == nil || snap.Flat == nil ||
		snap.Overlay == nil || !snap.Routable() {
		t.Fatal("labels config missing artifacts")
	}
	if snap.Routed() || snap.Build.RouterSec != 0 {
		t.Fatalf("a cold build built the router (%v s); the first Route builds it", snap.Build.RouterSec)
	}
	if snap.N() != 64 || snap.Name != "cube-n64" {
		t.Fatalf("snapshot identity: n=%d name=%q", snap.N(), snap.Name)
	}
	if snap.BuildElapsed <= 0 {
		t.Error("BuildElapsed not recorded")
	}

	cfg := testConfig(1)
	cfg.SkipOverlay = true
	lean, err := BuildSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lean.Overlay != nil {
		t.Error("SkipOverlay ignored")
	}
	if _, err := lean.Nearest(0); !errors.Is(err, ErrNoOverlay) {
		t.Errorf("Nearest without overlay: %v", err)
	}

	for _, bad := range []func(*Config){
		func(c *Config) { c.Workload = "nope" },
		func(c *Config) { c.Delta = 1.5 },
		func(c *Config) { c.Scheme = "nope" },
		func(c *Config) { c.Profile = "nope" },
		func(c *Config) { c.Backend = "nope" },
	} {
		cfg := testConfig(1)
		bad(&cfg)
		if _, err := BuildSnapshot(cfg); err == nil {
			t.Errorf("invalid config %+v accepted", cfg)
		}
	}
	cfg = testConfig(1)
	cfg.Scheme = "beacons"
	if _, err := BuildSnapshot(cfg); !errors.Is(err, ErrSchemeRetired) {
		t.Errorf("BuildSnapshot under the retired beacons scheme: %v, want ErrSchemeRetired", err)
	}
}

// TestVerifyChecksTheServedArena: Config.Verify checks the answers the
// arena serves, so one perturbed arena distance fails it with an error
// that names a pair. Node 0's first host distance is in the shared
// level-0 prefix, which every pair (0, v) folds.
func TestVerifyChecksTheServedArena(t *testing.T) {
	snap := buildTestSnapshot(t, 1) // testConfig verifies the build
	if snap.Build.VerifySec <= 0 {
		t.Fatal("Verify set but no verification timed")
	}
	snap.Flat.dists[snap.Flat.distOff[0]] += 10 * snap.Idx.Diameter()
	err := snap.verify()
	if err == nil || !strings.Contains(err.Error(), "pair (0,") {
		t.Fatalf("verify over a perturbed arena: %v, want an error naming a pair (0, v)", err)
	}
}

func sameEstimate(a, b EstimateResult) bool {
	return a.U == b.U && a.V == b.V && a.OK == b.OK &&
		math.Float64bits(a.Lower) == math.Float64bits(b.Lower) &&
		math.Float64bits(a.Upper) == math.Float64bits(b.Upper)
}

func TestEngineEstimateMatchesDirectAndCaches(t *testing.T) {
	snap := buildTestSnapshot(t, 1)
	e := NewEngine(snap, EngineOptions{})
	n := snap.N()
	for u := 0; u < n; u += 3 {
		for v := 0; v < n; v += 5 {
			got, err := e.Estimate(u, v)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi, ok := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
			want := EstimateResult{U: u, V: v, Lower: lo, Upper: hi, OK: ok, Version: 1}
			if !sameEstimate(got, want) || got.Cached {
				t.Fatalf("estimate(%d,%d) = %+v, want %+v", u, v, got, want)
			}
			d := snap.Idx.Dist(u, v)
			if got.Lower > d*(1+1e-9) || got.Upper < d*(1-1e-9) {
				t.Fatalf("estimate(%d,%d): sandwich violated: %v <= %v <= %v", u, v, got.Lower, d, got.Upper)
			}
			again, err := e.Estimate(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Cached || !sameEstimate(again, want) {
				t.Fatalf("cached estimate(%d,%d) = %+v, want cached %+v", u, v, again, want)
			}
		}
	}
	st := e.Stats()
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 || st.Cache.Size == 0 {
		t.Errorf("cache counters: %+v", st.Cache)
	}
	if st.Cache.Hits != st.Cache.Misses {
		t.Errorf("every miss re-queried once: hits %d vs misses %d", st.Cache.Hits, st.Cache.Misses)
	}
	if ep := st.Endpoints[EndpointEstimate]; ep.Count == 0 || ep.LatencyUs.Count == 0 {
		t.Errorf("estimate endpoint stats empty: %+v", ep)
	}
}

func TestEngineCacheDisabledAndEviction(t *testing.T) {
	snap := buildTestSnapshot(t, 1)
	off := NewEngine(snap, EngineOptions{CacheCapacity: -1})
	if _, err := off.Estimate(1, 2); err != nil {
		t.Fatal(err)
	}
	res, err := off.Estimate(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("disabled cache served a hit")
	}
	if st := off.Stats(); st.Cache.Hits != 0 || st.Cache.Size != 0 {
		t.Errorf("disabled cache counters: %+v", st.Cache)
	}

	snap2 := buildTestSnapshot(t, 2)
	tiny := NewEngine(snap2, EngineOptions{CacheShards: 1, CacheCapacity: 4})
	n := snap2.N()
	for u := 0; u < n; u++ {
		if _, err := tiny.Estimate(u, (u+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	st := tiny.Stats()
	if st.Cache.Size > 4 {
		t.Errorf("capacity 4 exceeded: %+v", st.Cache)
	}
	if st.Cache.Evictions == 0 {
		t.Errorf("no evictions recorded: %+v", st.Cache)
	}
}

func TestEngineBatchMatchesSingles(t *testing.T) {
	snap := buildTestSnapshot(t, 1)
	e := NewEngine(snap, EngineOptions{})
	rng := rand.New(rand.NewSource(3))
	pairs := make([]Pair, 50)
	for i := range pairs {
		pairs[i] = Pair{U: rng.Intn(snap.N()), V: rng.Intn(snap.N())}
	}
	batch, err := e.EstimateBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(pairs) {
		t.Fatalf("batch returned %d results for %d pairs", len(batch), len(pairs))
	}
	for i, p := range pairs {
		lo, up, ok := distlabel.Estimate(snap.Labels[p.U], snap.Labels[p.V])
		if !sameEstimate(batch[i], EstimateResult{U: p.U, V: p.V, Lower: lo, Upper: up, OK: ok}) {
			t.Fatalf("batch[%d] = %+v, reference walk (%v, %v, %v)", i, batch[i], lo, up, ok)
		}
	}
	if _, err := e.EstimateBatch([]Pair{{U: 0, V: snap.N()}}); err == nil {
		t.Error("batch accepted out-of-range pair")
	}
	if _, err := e.Estimate(-1, 0); err == nil {
		t.Error("estimate accepted negative node")
	}
}

func TestEngineNearestAndRouteMatchDirect(t *testing.T) {
	snap := buildTestSnapshot(t, 1)
	e := NewEngine(snap, EngineOptions{})
	entry := snap.Overlay.Members()[0]
	budget := len(snap.Overlay.Members()) + 1
	for target := 0; target < snap.N(); target += 7 {
		got, err := e.Nearest(target)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snap.Overlay.NearestMember(entry, target, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got.Member != want.Member || got.Hops != want.Hops ||
			math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("nearest(%d) = %+v, want %+v", target, got, want)
		}
		// The climb must land on a member within a constant factor of the
		// true nearest (exact on dense rings; factor 3 is the loose
		// Meridian bound the package documents).
		_, bestD := snap.Overlay.TrueNearest(target)
		if got.Dist > 3*bestD+1e-12 {
			t.Errorf("nearest(%d): dist %v vs true nearest %v", target, got.Dist, bestD)
		}
	}
	for src := 0; src < snap.N(); src += 11 {
		dst := (src + 23) % snap.N()
		got, err := e.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		router, err := snap.Router()
		if err != nil {
			t.Fatal(err)
		}
		want, err := routing.Route(router, src, dst, 80*snap.N())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Length) != math.Float64bits(want.Length) ||
			got.Hops != want.Hops || len(got.Path) != len(want.Path) {
			t.Fatalf("route(%d,%d) = %+v, want %+v", src, dst, got, want)
		}
		if src != dst && got.Stretch > 1+snap.Config.Delta+1e-9 {
			t.Errorf("route(%d,%d): stretch %v exceeds 1+δ", src, dst, got.Stretch)
		}
	}
}

func TestEngineRebuildSwapsVersion(t *testing.T) {
	snap := buildTestSnapshot(t, 1)
	e := NewEngine(snap, EngineOptions{})
	if v := e.Snapshot().Version; v != 1 {
		t.Fatalf("initial version %d", v)
	}
	cfg := testConfig(9)
	next, err := e.Rebuild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if next.Version != 2 || e.Snapshot() != next {
		t.Fatalf("rebuild installed version %d", next.Version)
	}
	st := e.Stats()
	if st.Swaps != 2 || st.Version != 2 {
		t.Errorf("stats after rebuild: swaps %d version %d", st.Swaps, st.Version)
	}
	if st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Errorf("cache not fresh after swap: %+v", st.Cache)
	}
}

// TestEngineConcurrentSwapByteIdentical is the acceptance check: 32
// concurrent clients hammer every endpoint while snapshots are swapped
// live underneath them, and every answer must be byte-identical to a
// direct distlabel / nnsearch / routing call on the snapshot version
// the answer reports.
func TestEngineConcurrentSwapByteIdentical(t *testing.T) {
	const (
		clients = 32
		iters   = 120
	)
	snaps := make([]*Snapshot, 4)
	for i := range snaps {
		snaps[i] = buildTestSnapshot(t, int64(i+1))
	}
	e := NewEngine(snaps[0], EngineOptions{CacheShards: 8, CacheCapacity: 256})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < iters; i++ {
				// snaps is read-only here; versions 1..4 were assigned in
				// swap order, so version v is snaps[v-1].
				u, v := rng.Intn(64), rng.Intn(64)
				switch i % 4 {
				case 0:
					res, err := e.Estimate(u, v)
					if err != nil {
						fail(err)
						return
					}
					snap := snaps[res.Version-1]
					lo, hi, ok := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
					if math.Float64bits(res.Lower) != math.Float64bits(lo) ||
						math.Float64bits(res.Upper) != math.Float64bits(hi) || res.OK != ok {
						t.Errorf("estimate(%d,%d) v%d diverged from direct distlabel call", u, v, res.Version)
						return
					}
				case 1:
					pairs := []Pair{{u, v}, {v, u}, {u, u}}
					batch, err := e.EstimateBatch(pairs)
					if err != nil {
						fail(err)
						return
					}
					snap := snaps[batch[0].Version-1]
					for j, p := range pairs {
						if batch[j].Version != batch[0].Version {
							t.Errorf("batch split across versions %d and %d", batch[0].Version, batch[j].Version)
							return
						}
						lo, hi, ok := distlabel.Estimate(snap.Labels[p.U], snap.Labels[p.V])
						if math.Float64bits(batch[j].Lower) != math.Float64bits(lo) ||
							math.Float64bits(batch[j].Upper) != math.Float64bits(hi) || batch[j].OK != ok {
							t.Errorf("batch pair (%d,%d) v%d diverged", p.U, p.V, batch[j].Version)
							return
						}
					}
				case 2:
					res, err := e.Nearest(u)
					if err != nil {
						fail(err)
						return
					}
					snap := snaps[res.Version-1]
					entry := snap.Overlay.Members()[0]
					want, err := snap.Overlay.NearestMember(entry, u, len(snap.Overlay.Members())+1)
					if err != nil {
						fail(err)
						return
					}
					if res.Member != want.Member || res.Hops != want.Hops ||
						math.Float64bits(res.Dist) != math.Float64bits(want.Dist) {
						t.Errorf("nearest(%d) v%d diverged from direct nnsearch call", u, res.Version)
						return
					}
				case 3:
					res, err := e.Route(u, v)
					if err != nil {
						fail(err)
						return
					}
					snap := snaps[res.Version-1]
					router, err := snap.Router()
					if err != nil {
						fail(err)
						return
					}
					want, err := routing.Route(router, u, v, 80*snap.N())
					if err != nil {
						fail(err)
						return
					}
					if math.Float64bits(res.Length) != math.Float64bits(want.Length) || res.Hops != want.Hops {
						t.Errorf("route(%d,%d) v%d diverged from direct routing call", u, v, res.Version)
						return
					}
				}
			}
		}(c)
	}

	// Live swaps while the clients run.
	for _, snap := range snaps[1:] {
		time.Sleep(5 * time.Millisecond)
		e.Swap(snap)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Version != 4 || st.Swaps != 4 {
		t.Errorf("final stats: version %d swaps %d", st.Version, st.Swaps)
	}
}

// TestEngineSwapReturnsOldSnapshot pins the swap contract: the previous
// snapshot comes back usable (still immutable, still answering).
func TestEngineSwapReturnsOldSnapshot(t *testing.T) {
	a := buildTestSnapshot(t, 1)
	b := buildTestSnapshot(t, 2)
	e := NewEngine(a, EngineOptions{})
	old := e.Swap(b)
	if old != a {
		t.Fatal("Swap did not return the displaced snapshot")
	}
	res, err := old.Estimate(1, 2)
	if err != nil || !res.OK {
		t.Fatalf("displaced snapshot cannot answer: %+v %v", res, err)
	}
	if res.Version != 1 {
		t.Errorf("displaced snapshot version rewritten to %d", res.Version)
	}
}

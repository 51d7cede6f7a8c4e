package oracle_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rings/internal/metric"
	"rings/internal/nnsearch"
	"rings/internal/objects"
	"rings/internal/oracle"
)

// TestHydrateHeapCeiling bounds what a warm start holds beyond the
// mapping by what a restore has to build: the restore of an n = 256
// labels snapshot may grow the heap by no more than a lazy index and the
// overlay built on their own over the same space, plus half the arena's
// size as measurement slack. An eager index's sorted rows (1 MB at this
// n), a second copy of the arena, or pointer labels (larger still) do
// not fit in that. The ceiling holds again after the restored snapshot
// has answered what a server asks of it — every estimate, a /nearest
// per node, an object publish and lookups — since none of that asks the
// index for a sorted row.
func TestHydrateHeapCeiling(t *testing.T) {
	cfg := oracle.Config{Workload: "cube", N: 256, Seed: 41, Delta: 0.5, Profile: oracle.ProfileTuned}
	cold, err := oracle.BuildSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	arena, n := int64(cold.Flat.Bytes()), cold.N()
	cold = nil

	cfg = cfg.WithDefaults()
	before := oracle.HeapInuse()
	space, _, err := cfg.Spec().Space()
	if err != nil {
		t.Fatal(err)
	}
	lazy := metric.NewLazyIndex(space, metric.Options{})
	overlay, err := nnsearch.New(lazy, oracle.OverlayMembers(n, cfg.MemberStride), nnsearch.DefaultConfig(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	budget := oracle.HeapInuse() - before
	runtime.KeepAlive(overlay)
	space, lazy, overlay = nil, nil, nil

	before = oracle.HeapInuse()
	fast, err := oracle.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Flat.Mapped() {
		fast.Close()
		t.Skip("the ceiling is for the mapped warm start; without mmap the read buffer itself is heap")
	}
	full, err := fast.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if _, lazy := full.Idx.(*metric.LazyIndex); !lazy {
		t.Fatalf("restore serves a %T, want a *metric.LazyIndex", full.Idx)
	}
	within := func(after string) {
		t.Helper()
		growth := oracle.HeapInuse() - before
		t.Logf("after %s: HeapInuse growth %d bytes; lazy index + overlay alone %d, the arena %d", after, growth, budget, arena)
		if growth > budget+arena/2 {
			t.Fatalf("after %s, the restored snapshot holds %d bytes more heap; lazy index + overlay alone take %d, the arena is %d", after, growth, budget, arena)
		}
	}
	within("the restore")

	for u := range n {
		for v := range n {
			if _, err := full.Estimate(u, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := full.Nearest(u); err != nil {
			t.Fatal(err)
		}
	}
	dir := objects.New(full, objects.Config{})
	if _, err := dir.Publish("obj", n/3); err != nil {
		t.Fatal(err)
	}
	for from := range n {
		if res, err := dir.Lookup("obj", from); err != nil || res.Node != n/3 {
			t.Fatalf("lookup of obj from %d = %+v, %v; want the one replica on %d", from, res, err, n/3)
		}
	}
	within("estimates, /nearest, a publish and lookups")
	runtime.KeepAlive(dir)
}

// TestColdBootServesWhatARestoreServes: a cold boot (BuildServed, the
// call ringsrv's boot makes) and a /snapshot rebuild (Engine.Rebuild)
// serve the restored form — a LazyIndex and no pointer labels — and hold
// what a restore holds: the arena, on the heap here, plus the budget
// TestHydrateHeapCeiling gives a mapped restore (a lazy index and the
// overlay built on their own, and half the arena as slack). The build's
// eager rows alone (1 MB at this n) do not fit in the slack, and its
// pointer labels and construction less so.
func TestColdBootServesWhatARestoreServes(t *testing.T) {
	cfg := oracle.Config{Workload: "cube", N: 256, Seed: 41, Delta: 0.5, Profile: oracle.ProfileTuned}
	// One build first, as TestHydrateHeapCeiling's, so that what the
	// first build in a process sets up once is not counted below.
	if _, err := oracle.BuildSnapshot(cfg); err != nil {
		t.Fatal(err)
	}
	space, _, err := cfg.Spec().Space()
	if err != nil {
		t.Fatal(err)
	}
	stride := cfg.WithDefaults().MemberStride
	before := oracle.HeapInuse()
	lazy := metric.NewLazyIndex(space, metric.Options{})
	overlay, err := nnsearch.New(lazy, oracle.OverlayMembers(space.N(), stride), nnsearch.DefaultConfig(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	budget := oracle.HeapInuse() - before
	runtime.KeepAlive(overlay)
	space, lazy, overlay = nil, nil, nil

	before = oracle.HeapInuse()
	served := func(what string, snap *oracle.Snapshot) {
		t.Helper()
		if _, lazy := snap.Idx.(*metric.LazyIndex); !lazy {
			t.Fatalf("%s serves a %T, want a *metric.LazyIndex", what, snap.Idx)
		}
		if snap.Labels != nil {
			t.Fatalf("%s serves pointer labels", what)
		}
		arena := int64(snap.Flat.Bytes())
		growth := oracle.HeapInuse() - before
		t.Logf("%s: HeapInuse growth %d bytes; the arena %d, lazy index + overlay alone %d", what, growth, arena, budget)
		if growth > arena+budget+arena/2 {
			t.Fatalf("%s holds %d bytes more heap; the arena is %d, lazy index + overlay alone take %d", what, growth, arena, budget)
		}
	}

	snap, err := oracle.BuildServed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served("a cold boot", snap)

	// The rebuild takes the boot's place in the engine, so the boot's
	// snapshot is garbage once it returns and the growth is counted from
	// before the boot, as the boot's was.
	engine := oracle.NewEngine(snap, oracle.EngineOptions{CacheCapacity: -1})
	snap = nil
	cfg.Seed++
	rebuilt, err := engine.Rebuild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served("a rebuild", rebuilt)
	runtime.KeepAlive(engine)
}

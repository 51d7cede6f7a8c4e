package oracle

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"testing"

	"rings/internal/distlabel"
	"rings/internal/par"
)

// TestHydrateServesTheArenaItWasHanded is the arena-only restore
// property, on all four workload families and both schemes: hydration
// adopts the opened mapping (no copy, no pointer labels, no unused
// construction) and answers every pair bit-identically to the
// pre-hydration snapshot, to the cold build's reference walk and — via
// the on-demand helper — to the pointer walk over materialized labels;
// re-persisting it reproduces the file.
func TestHydrateServesTheArenaItWasHanded(t *testing.T) {
	for _, cfg := range flatConfigs() {
		cold, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Workload, err)
		}
		path := writeSnapshotV2File(t, t.TempDir(), cold)
		fast, err := OpenSnapshotFile(path)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Workload, err)
		}
		full, err := fast.Hydrate()
		if err != nil {
			t.Fatalf("%s: hydrate: %v", cfg.Workload, err)
		}
		labels := cold.Config.Scheme == SchemeLabels
		if full.Flat != fast.Flat || full.Flat.Mapped() != mmapSupported {
			t.Fatalf("%s: hydration did not adopt the opened arena (mapped=%v)", cfg.Workload, full.Flat.Mapped())
		}
		if full.Labels != nil || full.Scheme != nil || (full.Tri != nil) == labels {
			t.Fatalf("%s: hydration built labels=%v scheme=%v tri=%v", cfg.Workload, full.Labels != nil, full.Scheme != nil, full.Tri != nil)
		}
		if full.Idx == nil || (full.Overlay == nil) != cfg.SkipOverlay || full.Routable() == cfg.SkipRouting {
			t.Fatalf("%s: hydration missed a serving artifact", cfg.Workload)
		}

		var pointer []*distlabel.Label
		if labels {
			if pointer, err = full.MaterializeLabels(); err != nil {
				t.Fatal(err)
			}
			coldWire, err1 := cold.LabelWire()
			fullWire, err2 := full.LabelWire()
			if err1 != nil || err2 != nil || coldWire != fullWire {
				t.Fatalf("%s: LabelWire from LabelMeta %+v/%v, cold build %+v/%v", cfg.Workload, fullWire, err2, coldWire, err1)
			}
			for u, lab := range pointer {
				a, abits, err1 := coldWire.Encode(cold.Labels[u])
				b, bbits, err2 := fullWire.Encode(lab)
				if err1 != nil || err2 != nil || abits != bbits || !bytes.Equal(a, b) {
					t.Fatalf("%s: materialized label %d encodes differently from the built one", cfg.Workload, u)
				}
			}
		} else if _, err := full.MaterializeLabels(); err == nil {
			t.Fatalf("%s: beacons snapshot materialized labels", cfg.Workload)
		}
		n := cold.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want, err := cold.Estimate(u, v)
				if err != nil {
					t.Fatal(err)
				}
				pre, err1 := fast.Estimate(u, v)
				got, err2 := full.Estimate(u, v)
				if err1 != nil || err2 != nil || !sameEstimate(pre, want) || !sameEstimate(got, want) {
					t.Fatalf("%s: estimate(%d,%d) fast %+v/%v full %+v/%v, cold %+v", cfg.Workload, u, v, pre, err1, got, err2, want)
				}
				if labels {
					lo, up, ok := distlabel.Estimate(pointer[u], pointer[v])
					if !sameEstimate(got, EstimateResult{U: u, V: v, Lower: lo, Upper: up, OK: ok}) {
						t.Fatalf("%s: estimate(%d,%d) = %+v, pointer walk (%v, %v, %v)", cfg.Workload, u, v, got, lo, up, ok)
					}
				}
			}
		}

		var again bytes.Buffer
		if _, err := full.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, again.Bytes()) {
			t.Fatalf("%s: re-persisting the hydrated snapshot changed the bytes", cfg.Workload)
		}
		full.Close()
		if full.Flat.Mapped() {
			t.Fatalf("%s: Close of the hydrated snapshot left the mapping alive", cfg.Workload)
		}
		if _, err := full.Estimate(0, 1); labels && mmapSupported && err == nil {
			t.Fatalf("%s: estimate answered from an unmapped arena", cfg.Workload)
		}
	}
}

// TestEstimateDispatchesOnScheme guards the estimator choice: an
// arena-only labels snapshot that also carries a triangulation must
// still answer from its label arena, not from whichever pointer is set.
func TestEstimateDispatchesOnScheme(t *testing.T) {
	cold := buildTestSnapshot(t, 37)
	var buf bytes.Buffer
	if _, err := cold.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored.Tri = cold.Tri
	differ := 0
	for u := 0; u < cold.N(); u++ {
		for v := 0; v < cold.N(); v++ {
			want, _ := cold.Estimate(u, v)
			got, err := restored.Estimate(u, v)
			if err != nil || !sameEstimate(got, want) {
				t.Fatalf("estimate(%d,%d) = %+v/%v, labels answer %+v", u, v, got, err, want)
			}
			if lo, up, _ := cold.Tri.Estimate(u, v); math.Float64bits(lo) != math.Float64bits(want.Lower) || math.Float64bits(up) != math.Float64bits(want.Upper) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("beacon and label estimates agree on every pair: the test cannot tell the estimators apart")
	}
}

// TestHydrateHeapCeiling bounds what a warm start holds beyond the
// mapping by what it has to build: the restore of an n=256 labels
// snapshot may grow the heap by no more than index + overlay + router
// built on their own over the same space, plus half the arena's size as
// measurement slack — a second copy of the arena, or pointer labels
// (larger still), does not fit in that.
func TestHydrateHeapCeiling(t *testing.T) {
	if !mmapSupported {
		t.Skip("the ceiling is for the mapped warm start; without mmap the read buffer itself is heap")
	}
	cfg := testConfig(41)
	cfg.N, cfg.Verify = 256, false
	cold, err := BuildSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapshotV2File(t, t.TempDir(), cold)
	arena := cold.Flat.Bytes()
	cold = nil

	before := heapInuse()
	space, name, err := cfg.withDefaults().Spec().Space()
	if err != nil {
		t.Fatal(err)
	}
	built, _, err := indexSnapshot(cfg, space, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Group(built.buildOverlay, built.ForceRouter); err != nil {
		t.Fatal(err)
	}
	budget := heapInuse() - before
	runtime.KeepAlive(built)
	built, space = nil, nil

	before = heapInuse()
	fast, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fast.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if err := full.ForceRouter(); err != nil { // as a warm boot does
		t.Fatal(err)
	}
	growth := heapInuse() - before
	if growth > budget+int64(arena)/2 {
		t.Fatalf("restore grew HeapInuse by %d bytes; index + overlay + router alone take %d, the arena is %d", growth, budget, arena)
	}
	t.Logf("arena %d bytes, HeapInuse growth %d bytes, artifacts alone %d", arena, growth, budget)
	runtime.KeepAlive(full)
}

// heapInuse reports HeapInuse after a collection: what is live.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestColdBuildHeapCeiling bounds what a cold boot holds: an n = 256
// build of ringperf's served dataset (latency, tuned, δ = 0.5, labels,
// overlay and router), held alive across a collection, grew HeapInuse by
// 7.5–8.0 MB (at most 8,396,800 bytes) once every enumeration, T-set and
// ζ map became a sorted slice, and by 13.4 MB with an index map per
// enumeration, a materialized T-set per node and a hash map per ζ level;
// the ceiling is the largest measurement plus 10 %.
func TestColdBuildHeapCeiling(t *testing.T) {
	const ceiling = 8_396_800 * 11 / 10
	cfg := Config{Workload: "latency", N: 256, Seed: 1, Delta: 0.5, Scheme: SchemeLabels, Profile: ProfileTuned}
	before := heapInuse()
	snap, err := BuildSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	growth := heapInuse() - before
	runtime.KeepAlive(snap)
	t.Logf("cold build grew HeapInuse by %d bytes (%.1f MB)", growth, float64(growth)/(1<<20))
	if growth > ceiling {
		t.Fatalf("cold build grew HeapInuse by %d bytes, ceiling %d", growth, ceiling)
	}
}

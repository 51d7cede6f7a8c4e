package oracle

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"rings/internal/distlabel"
)

// TestHydrateServesTheArenaItWasHanded is the arena-only restore
// property, on all four workload families: hydration adopts the opened
// mapping (no copy, no pointer labels) and answers every pair
// bit-identically to the pre-hydration snapshot, to the pointer walk over
// the cold build's labels and — via the on-demand helper — to the
// pointer walk over materialized labels; re-persisting it reproduces the
// file.
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
		if full.Flat != fast.Flat || full.Flat.Mapped() != mmapSupported {
			t.Fatalf("%s: hydration did not adopt the opened arena (mapped=%v)", cfg.Workload, full.Flat.Mapped())
		}
		if full.Labels != nil {
			t.Fatalf("%s: hydration built pointer labels", cfg.Workload)
		}
		if full.Idx == nil || (full.Overlay == nil) != cfg.SkipOverlay || !full.Routable() {
			t.Fatalf("%s: hydration missed a serving artifact", cfg.Workload)
		}
		if full.Routed() {
			t.Fatalf("%s: hydration built the router; the first Route builds it", cfg.Workload)
		}

		pointer, err := full.MaterializeLabels()
		if err != nil {
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
		n := cold.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				lo, up, ok := distlabel.Estimate(cold.Labels[u], cold.Labels[v])
				want := EstimateResult{U: u, V: v, Lower: lo, Upper: up, OK: ok}
				pre, err1 := fast.Estimate(u, v)
				got, err2 := full.Estimate(u, v)
				if err1 != nil || err2 != nil || !sameEstimate(pre, want) || !sameEstimate(got, want) {
					t.Fatalf("%s: estimate(%d,%d) fast %+v/%v full %+v/%v, cold pointer walk %+v", cfg.Workload, u, v, pre, err1, got, err2, want)
				}
				lo, up, ok = distlabel.Estimate(pointer[u], pointer[v])
				if !sameEstimate(got, EstimateResult{U: u, V: v, Lower: lo, Upper: up, OK: ok}) {
					t.Fatalf("%s: estimate(%d,%d) = %+v, materialized pointer walk (%v, %v, %v)", cfg.Workload, u, v, got, lo, up, ok)
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
		if _, err := full.Estimate(0, 1); mmapSupported && err == nil {
			t.Fatalf("%s: estimate answered from an unmapped arena", cfg.Workload)
		}
	}
}

// TestEstimateWalksTheArena guards the one estimator path: a build-side
// snapshot, which still holds its pointer labels, answers from its
// arena. Its answers equal the pointer walk's until one arena distance
// is perturbed; then the answers that fold that distance move.
func TestEstimateWalksTheArena(t *testing.T) {
	snap := buildTestSnapshot(t, 37)
	want := make([]EstimateResult, snap.N())
	for v := range want {
		want[v], _ = snap.Estimate(0, v)
	}
	snap.Flat.dists[snap.Flat.distOff[0]] += 10 * snap.Idx.Diameter()
	moved := 0
	for v := range want {
		got, err := snap.Estimate(0, v)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEstimate(got, want[v]) {
			moved++
		}
		if lo, up, ok := distlabel.Estimate(snap.Labels[0], snap.Labels[v]); !sameEstimate(want[v], EstimateResult{U: 0, V: v, Lower: lo, Upper: up, OK: ok}) {
			t.Fatalf("estimate(0,%d) before the perturbation = %+v, pointer walk (%v, %v, %v)", v, want[v], lo, up, ok)
		}
	}
	if moved == 0 {
		t.Fatal("perturbing the arena moved no answer: Estimate did not read it")
	}
}

// heapInuse reports HeapInuse after a collection: what is live.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestColdBuildHeapCeiling bounds what a build-side snapshot holds (what
// BuildSnapshot returns and a fleet primary serves; a single engine
// serves BuildServed's restore of it instead): an n = 256 build of
// ringperf's served dataset (latency, tuned, δ = 0.5, labels and
// overlay; no boot builds the router), held alive across a collection,
// grew HeapInuse by 3.3–4.1 MB (at most 4,063,232 bytes, at -cpu 1 to
// 16 on a 2-vCPU host, five runs each; more workers hold a little
// more). It grew by 4.3–5.0 MB while the snapshot kept the label
// build's *distlabel.Scheme (and through it the whole construction),
// 7.4–8.8 MB while a boot still built the router, and 13.4 MB with an
// index map per enumeration, a materialized T-set per node and a hash
// map per ζ level; the ceiling is the largest measurement plus 10 %.
func TestColdBuildHeapCeiling(t *testing.T) {
	const ceiling = 4_063_232 * 11 / 10
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

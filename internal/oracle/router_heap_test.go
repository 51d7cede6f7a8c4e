package oracle

import (
	"runtime"
	"testing"

	"rings/internal/metric"
)

// TestRouterHeapCeiling bounds what a built router holds. On a restored
// n = 256 snapshot of ringperf's served dataset, whose lazy index holds
// no sorted rows, the first Router() sorts rows for its own build
// (metric.WithRows), builds rings, zoom rings and the hierarchy, and
// keeps only its flat arena (470,560 bytes) and overlay: across it,
// HeapInuse grew by 786–860 KB (at most 860,160 bytes, at -cpu 1 to 16
// on a 2-vCPU host), and by 4.26 MB while the router kept the rows and a
// pointer table per ζ row, ring and label. The ceiling is the largest
// measurement plus 10 %; the rows alone (~1 MB at this n, measured
// below) do not fit in it.
func TestRouterHeapCeiling(t *testing.T) {
	const ceiling = 860_160 * 11 / 10
	cfg := Config{Workload: "latency", N: 256, Seed: 1, Delta: 0.5, Scheme: SchemeLabels, Profile: ProfileTuned}
	cold, err := BuildSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapshotV2File(t, t.TempDir(), cold)
	cold = nil
	fast, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := fast.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, lazy := snap.Idx.(*metric.LazyIndex); !lazy {
		t.Fatalf("restore serves a %T, want a *metric.LazyIndex", snap.Idx)
	}

	before := heapInuse()
	rows := metric.WithRows(snap.Idx, 1)
	rowBytes := heapInuse() - before
	runtime.KeepAlive(rows)

	before = heapInuse()
	router, err := snap.Router()
	if err != nil {
		t.Fatal(err)
	}
	growth := heapInuse() - before
	runtime.KeepAlive(router)
	arena := int64(mRouterBytes.Value())
	t.Logf("first Router(): HeapInuse growth %d bytes (arena %d); the build's rows alone %d", growth, arena, rowBytes)
	if growth >= rowBytes {
		t.Fatalf("the built router holds %d bytes of heap, no less than its build's rows (%d): they were not released", growth, rowBytes)
	}
	if growth > ceiling {
		t.Fatalf("the built router holds %d bytes of heap, ceiling %d; its build's rows are %d", growth, ceiling, rowBytes)
	}
}

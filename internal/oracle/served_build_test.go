package oracle

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"weak"

	"rings/internal/metric"
)

// TestServedBuildReleasesItsRows: in the build BuildServed runs, every
// eager row the construction read is unreachable by the time the labels
// are filled — the Z-sets and labels read only distances, off the
// LazyIndex the restore goes on to serve.
func TestServedBuildReleasesItsRows(t *testing.T) {
	var rows []weak.Pointer[metric.Neighbor]
	alive := -1
	buildHook = func(point string, snap *Snapshot) {
		switch point {
		case "constructed":
			eager, ok := snap.Idx.(*metric.Index)
			if !ok {
				t.Errorf("the construction read a %T, want the eager *metric.Index", snap.Idx)
				return
			}
			for u := range eager.N() {
				rows = append(rows, weak.Make(&eager.Sorted(u)[0]))
			}
		case "labeled":
			runtime.GC()
			alive = 0
			for _, row := range rows {
				if row.Value() != nil {
					alive++
				}
			}
		}
	}
	defer func() { buildHook = nil }()
	snap, err := BuildServed(Config{Workload: "latency", N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != snap.N() || alive != 0 {
		t.Fatalf("%d of %d eager rows still reachable once the labels were filled", alive, len(rows))
	}
	if _, lazy := snap.Idx.(*metric.LazyIndex); !lazy {
		t.Fatalf("BuildServed serves a %T, want a *metric.LazyIndex", snap.Idx)
	}
}

// TestPackedArenaBytes: the arena of each label packed on its own and
// laid end to end — as BuildSnapshot and BuildServed pack it, each label
// as it is filled — and newFlatFromLabels's repack of the pointer labels
// all hash to what the one-pass packer wrote before them, on all four
// families at n = 256; expline's arena has exception keys, and every
// family's groups share entry lists.
func TestPackedArenaBytes(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		hash string
	}{
		{Config{Workload: "grid", Side: 16}, "bbc03ecd7fc9b552253f0d35aeda9d9e8acd3baa73b4adbb1dbc66d5d0120e3e"},
		{Config{Workload: "cube", N: 256, Seed: 3}, "c357b982067fd12b12b6c7a3a038f33e42741bd2929cb874bd10319e3f3a5da1"},
		{Config{Workload: "expline", N: 256, LogAspect: 60}, "1e3d90d0565d67c446b9758de6f7d5c175413b38df781f870dad6e4346c38edf"},
		{Config{Workload: "latency", N: 256, Seed: 1}, "ddded7103039e1a5aac57dd6cffc8d29db9bfe8c3352973a82e60b0706e9e5f5"},
	} {
		cfg := tc.cfg
		cfg.SkipOverlay = true
		built, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		served, err := BuildServed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		repacked, err := newFlatFromLabels(built.Labels, 2)
		if err != nil {
			t.Fatal(err)
		}
		for what, f := range map[string]*FlatSnap{"BuildSnapshot": built.Flat, "BuildServed": served.Flat, "newFlatFromLabels": repacked} {
			if got := fmt.Sprintf("%x", sha256.Sum256(f.buf)); got != tc.hash {
				t.Errorf("%s: %s's arena hashes to %s, want %s", cfg.Workload, what, got, tc.hash)
			}
		}
		f := built.Flat
		t.Logf("%s: %d keys, %d stored lists, %d exception keys", cfg.Workload, f.keys, f.lists, len(f.xcKeys))
		if f.lists >= f.keys || (cfg.Workload == "expline") != (len(f.xcKeys) > 0) {
			t.Errorf("%s: %d keys share %d lists with %d exception keys; want shared lists, and exceptions on expline alone", cfg.Workload, f.keys, f.lists, len(f.xcKeys))
		}
	}
}

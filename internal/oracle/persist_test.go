package oracle

import (
	"bytes"
	"testing"

	"rings/internal/distlabel"
)

// persistConfigs are the round-trip subjects: every workload family,
// labels and beacons schemes.
func persistConfigs() []Config {
	return []Config{
		{Workload: "cube", N: 48, Seed: 3, MemberStride: 4},
		{Workload: "latency", N: 48, Seed: 5, MemberStride: 3},
		{Workload: "expline", N: 32, LogAspect: 40, SkipRouting: true},
		{Workload: "grid", Side: 6, SkipRouting: true},
		{Workload: "cube", N: 40, Seed: 7, Scheme: SchemeBeacons, SkipRouting: true, SkipOverlay: true},
	}
}

// TestSnapshotPersistRoundTrip is the persistence property: write →
// read → write is byte-identical (the canonical wire encoding is a
// fixed point), and the loaded snapshot answers exactly like labels
// materialized from the file's arena (estimates) and like the
// deterministically rebuilt artifacts (nearest, routes).
func TestSnapshotPersistRoundTrip(t *testing.T) {
	for _, cfg := range persistConfigs() {
		snap, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Workload, err)
		}
		var first bytes.Buffer
		if _, err := snap.WriteTo(&first); err != nil {
			t.Fatalf("%s: write: %v", cfg.Workload, err)
		}
		loaded, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", cfg.Workload, err)
		}
		if loaded.N() != snap.N() || loaded.Name != snap.Name {
			t.Fatalf("%s: identity mismatch: n=%d/%d name=%q/%q",
				cfg.Workload, loaded.N(), snap.N(), loaded.Name, snap.Name)
		}
		var second bytes.Buffer
		if _, err := loaded.WriteTo(&second); err != nil {
			t.Fatalf("%s: rewrite: %v", cfg.Workload, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: write-read-write not byte-identical (%d vs %d bytes)",
				cfg.Workload, first.Len(), second.Len())
		}

		n := snap.N()
		if snap.Labels != nil {
			// Loaded estimates must equal direct estimates on the decoded
			// labels — the snapshot adds nothing beyond the file content.
			decoded, err := loaded.MaterializeLabels()
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v += 3 {
					got, err := loaded.Estimate(u, v)
					if err != nil {
						t.Fatal(err)
					}
					lo, up, ok := distlabel.Estimate(decoded[u], decoded[v])
					if got.Lower != lo || got.Upper != up || got.OK != ok {
						t.Fatalf("%s: estimate(%d,%d) diverges from decoded labels", cfg.Workload, u, v)
					}
					// Wire semantics keep the upper bound a true upper bound
					// relative to the exact builder's estimate.
					exact, err := snap.Estimate(u, v)
					if err != nil {
						t.Fatal(err)
					}
					if exact.OK && ok && got.Upper < exact.Upper*(1-1e-9) {
						t.Fatalf("%s: decoded upper %v below exact %v", cfg.Workload, got.Upper, exact.Upper)
					}
				}
			}
		}
		if snap.Overlay != nil {
			for target := 0; target < n; target++ {
				a, err1 := snap.Nearest(target)
				b, err2 := loaded.Nearest(target)
				if (err1 == nil) != (err2 == nil) || a.Member != b.Member || a.Dist != b.Dist {
					t.Fatalf("%s: nearest(%d) %+v vs %+v", cfg.Workload, target, a, b)
				}
			}
		}
		if snap.Routable() {
			for k := 0; k < 16; k++ {
				src, dst := (k*7)%n, (k*13+5)%n
				a, err1 := snap.Route(src, dst)
				b, err2 := loaded.Route(src, dst)
				if (err1 == nil) != (err2 == nil) || a.Length != b.Length || a.Hops != b.Hops {
					t.Fatalf("%s: route(%d,%d) %+v vs %+v", cfg.Workload, src, dst, a, b)
				}
			}
		}
	}
}

// TestSnapshotPersistRejectsGarbage covers the format guards.
func TestSnapshotPersistRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte(persistMagicV1 + "\xff\xff\xff"))); err == nil {
		t.Fatal("truncated v1 header accepted")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte(persistMagicV2 + "\xff\xff\xff"))); err == nil {
		t.Fatal("truncated v2 header accepted")
	}
}

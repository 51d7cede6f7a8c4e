package oracle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rings/internal/distlabel"
)

// persistConfigs are the round-trip subjects: every workload family.
func persistConfigs() []Config {
	return []Config{
		{Workload: "cube", N: 48, Seed: 3, MemberStride: 4},
		{Workload: "latency", N: 48, Seed: 5, MemberStride: 3},
		{Workload: "expline", N: 32, LogAspect: 40},
		{Workload: "grid", Side: 6},
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
				_, exact, exactOK := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
				if exactOK && ok && got.Upper < exact*(1-1e-9) {
					t.Fatalf("%s: decoded upper %v below exact %v", cfg.Workload, got.Upper, exact)
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

// TestSkipRoutingHeaderStillRoutes: the v2 header's config lost one key,
// "SkipRouting", with the knob. A file whose header still has it — here
// set, as a -no-routing boot wrote it — opens, hydrates and routes: the
// key is ignored, and the arena bytes are the ones written.
func TestSkipRoutingHeaderStillRoutes(t *testing.T) {
	snap := buildTestSnapshot(t, 49)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	hdrLen := int(binary.LittleEndian.Uint32(img[len(persistMagicV2):]))
	hdr := img[len(persistMagicV2)+v2HeaderPrefix:][:hdrLen]
	if bytes.Contains(hdr, []byte("SkipRouting")) {
		t.Fatalf("header still writes SkipRouting: %s", hdr)
	}
	old := bytes.Replace(hdr, []byte(`"config":{`), []byte(`"config":{"SkipRouting":true,`), 1)
	path := filepath.Join(t.TempDir(), "parent.bin")
	if err := os.WriteFile(path, frameV2(old, img[v2PayloadOffset(hdrLen):]), 0o644); err != nil {
		t.Fatal(err)
	}
	flat, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := flat.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if !bytes.Equal(full.Flat.buf, snap.Flat.buf) {
		t.Fatal("arena bytes differ from the ones written")
	}
	got, err := full.Route(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := snap.Route(0, 5); got.Length != want.Length || got.Hops != want.Hops {
		t.Fatalf("route(0,5) = %+v, the written snapshot's %+v", got, want)
	}
}

// beaconsImage re-frames a v2 image (not modified) under a header that
// says the retired "beacons" scheme, in its recipe and as the arena's
// scheme: what a beacons build persisted, checksums intact.
func beaconsImage(t testing.TB, img []byte) []byte {
	t.Helper()
	hdr, payload, err := readV2Envelope(bytes.NewReader(img[len(persistMagicV2):]))
	if err != nil {
		t.Fatal(err)
	}
	hdr.Scheme, hdr.Config.Scheme = "beacons", "beacons"
	return reframe(hdr, payload)
}

// TestRetiredSchemeImageRefused: a v2 file whose header says "beacons"
// fails both readers with ErrSchemeRetired, before its arena is read
// under the labels rules.
func TestRetiredSchemeImageRefused(t *testing.T) {
	snap := buildTestSnapshot(t, 47)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := beaconsImage(t, buf.Bytes())
	if _, err := ReadSnapshot(bytes.NewReader(img)); !errors.Is(err, ErrSchemeRetired) {
		t.Fatalf("ReadSnapshot of a beacons image: %v, want ErrSchemeRetired", err)
	}
	path := filepath.Join(t.TempDir(), "beacons.bin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotFile(path); !errors.Is(err, ErrSchemeRetired) {
		t.Fatalf("OpenSnapshotFile of a beacons image: %v, want ErrSchemeRetired", err)
	}
}

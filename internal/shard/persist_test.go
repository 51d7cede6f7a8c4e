package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rings/internal/oracle"
)

// persistFleetFiles writes every shard's current snapshot to
// SnapshotPath(base, s), the way cmd/ringsrv's per-shard persisters do.
func persistFleetFiles(t testing.TB, f *Fleet, base string) {
	t.Helper()
	for s := 0; s < f.K(); s++ {
		file, err := os.Create(SnapshotPath(base, s))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ShardSnapshot(s).WriteTo(file); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetRestartRoundTrip is the S1 property: a fleet persisted shard
// by shard and reopened from those files answers every query —
// intra-shard estimates, cross-shard beacon estimates, nearest, routes
// — exactly like the fleet that wrote them.
func TestFleetRestartRoundTrip(t *testing.T) {
	cfg := fleetFamilies(testing.Short())[0]
	built, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "fleet.snap")
	if SnapshotFilesExist(base, cfg.Shards) {
		t.Fatal("files reported present before any persist")
	}
	persistFleetFiles(t, built, base)
	if !SnapshotFilesExist(base, cfg.Shards) {
		t.Fatal("files reported missing after persist")
	}

	reopened, err := OpenFleet(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Shards; s++ {
		if built.ShardSnapshot(s).Routed() || reopened.ShardSnapshot(s).Routed() {
			t.Fatalf("shard %d: a fleet boot built its router; the first route builds it", s)
		}
	}
	if reopened.N() != built.N() || reopened.K() != built.K() || reopened.Name() != built.Name() {
		t.Fatalf("fleet identity: n=%d/%d k=%d/%d name=%q/%q",
			reopened.N(), built.N(), reopened.K(), built.K(), reopened.Name(), built.Name())
	}
	n := built.Universe()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v += 3 {
			a, err1 := built.Estimate(u, v)
			b, err2 := reopened.Estimate(u, v)
			if err1 != nil || err2 != nil {
				t.Fatalf("estimate(%d,%d): %v / %v", u, v, err1, err2)
			}
			if a.Cross != b.Cross || a.OK != b.OK || a.Lower != b.Lower || a.Upper != b.Upper {
				t.Fatalf("estimate(%d,%d) diverged: %+v vs %+v", u, v, a, b)
			}
		}
	}
	for target := 0; target < n; target += 2 {
		a, err1 := built.Nearest(target)
		b, err2 := reopened.Nearest(target)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && (a.Member != b.Member || a.Dist != b.Dist)) {
			t.Fatalf("nearest(%d): %+v/%v vs %+v/%v", target, a, err1, b, err2)
		}
	}
	for k := 0; k < 24; k++ {
		src := (k * 7) % n
		dst := src + cfg.Shards*(k%3+1) // same shard under round-robin ownership
		if dst >= n {
			continue
		}
		a, err1 := built.Route(src, dst)
		b, err2 := reopened.Route(src, dst)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && (a.Length != b.Length || a.Hops != b.Hops)) {
			t.Fatalf("route(%d,%d): %+v/%v vs %+v/%v", src, dst, a, err1, b, err2)
		}
	}

	// Reopened fleets re-persist byte-identically (same canonical arena
	// bytes, same header).
	base2 := filepath.Join(t.TempDir(), "fleet2.snap")
	persistFleetFiles(t, reopened, base2)
	for s := 0; s < cfg.Shards; s++ {
		a, err := os.ReadFile(SnapshotPath(base, s))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(SnapshotPath(base2, s))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("shard %d re-persist not byte-identical (%d vs %d bytes)", s, len(a), len(b))
		}
	}
}

// TestOpenFleetGuards covers the refusal paths: churn fleets boot
// fresh, missing files fail with the shard named, and a scheme or
// recipe mismatch between the files and the boot flags is rejected
// with the field named.
func TestOpenFleetGuards(t *testing.T) {
	cfg := fleetFamilies(true)[0]

	churnCfg := cfg
	churnCfg.Churn = true
	if _, err := OpenFleet(churnCfg, filepath.Join(t.TempDir(), "x")); err == nil || !strings.Contains(err.Error(), "churn") {
		t.Fatalf("churn fleet warm boot: %v", err)
	}

	if _, err := OpenFleet(cfg, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing files accepted")
	}

	built, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "fleet.snap")
	persistFleetFiles(t, built, base)
	retiredScheme := cfg
	retiredScheme.Oracle.Scheme = "beacons"
	if _, err := OpenFleet(retiredScheme, base); !errors.Is(err, oracle.ErrSchemeRetired) {
		t.Fatalf("warm boot under the retired beacons scheme: %v", err)
	}
	for field, change := range map[string]func(*oracle.Config){
		"Delta":       func(c *oracle.Config) { c.Delta = 0.25 },
		"N":           func(c *oracle.Config) { c.N += cfg.Shards },
		"SkipOverlay": func(c *oracle.Config) { c.SkipOverlay = true },
	} {
		other := cfg
		change(&other.Oracle)
		if _, err := OpenFleet(other, base); err == nil || !strings.Contains(err.Error(), field+" = ") {
			t.Fatalf("warm boot asking for another %s: %v", field, err)
		}
	}

	// One shard file in either retired layout: its directory names the
	// per-key ent_off or ent_span table, and the fleet refuses by that name.
	path := SnapshotPath(base, cfg.Shards-1)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []string{"ent_off", "ent_span"} {
		if err := os.WriteFile(path, oldLayoutImage(t, bytes.Clone(img), retired), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFleet(cfg, base); !errors.Is(err, oracle.ErrOldLayout) {
			t.Fatalf("shard file naming %s: %v", retired, err)
		}
	}
}

// oldLayoutImage renames a v2 image's grp_span section to the retired
// name in place (a shorter name is padded with JSON whitespace, so
// nothing moves) and recomputes the header checksum: magic, u32 header
// length, u64 CRC-64/ECMA of the header, header.
func oldLayoutImage(t testing.TB, img []byte, retired string) []byte {
	t.Helper()
	const magic = len("RINGSNAP2\n")
	hdr := img[magic+12 : magic+12+int(binary.LittleEndian.Uint32(img[magic:]))]
	from := `"name":"grp_span"`
	at := bytes.Index(hdr, []byte(from))
	if at < 0 {
		t.Fatal("image has no grp_span section to rename")
	}
	copy(hdr[at:], fmt.Sprintf(`"name":%*s`, len(from)-len(`"name":`), `"`+retired+`"`))
	binary.LittleEndian.PutUint64(img[magic+4:], crc64.Checksum(hdr, crc64.MakeTable(crc64.ECMA)))
	return img
}

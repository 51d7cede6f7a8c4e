package oracle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rings/internal/distlabel"
)

// flatConfigs are the byte-identity subjects: all four workload
// families, plus the benchmark's dataset shape (latency, tuned,
// δ = 0.5) at n = 256.
func flatConfigs() []Config {
	return []Config{
		{Workload: "grid", Side: 7},
		{Workload: "cube", N: 56, Seed: 11, MemberStride: 4},
		{Workload: "expline", N: 40, LogAspect: 60},
		{Workload: "latency", N: 56, Seed: 13, MemberStride: 3},
		{Workload: "latency", N: 256, Seed: 1, Delta: 0.5, Profile: ProfileTuned, SkipOverlay: true},
	}
}

// TestFlatEstimateByteIdentical is the tentpole correctness property:
// for every pair, the served estimate (the flat-arena walk) returns
// bit-for-bit the same bounds as distlabel.Estimate, the pointer-label
// reference walk.
func TestFlatEstimateByteIdentical(t *testing.T) {
	for _, cfg := range flatConfigs() {
		snap, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Workload, err)
		}
		if snap.Flat == nil {
			t.Fatalf("%s: snapshot has no flat arenas", cfg.Workload)
		}
		n := snap.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				lo, up, ok := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
				got, err := snap.Estimate(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if !sameEstimate(got, EstimateResult{U: u, V: v, Lower: lo, Upper: up, OK: ok}) {
					t.Fatalf("%s: served estimate(%d,%d) = (%v, %v, %v), pointer walk (%v, %v, %v)",
						cfg.Workload, u, v, got.Lower, got.Upper, got.OK, lo, up, ok)
				}
			}
		}
	}
}

// TestEstimateBatchIntoZeroAlloc proves the warm batch path performs no
// heap allocation per query: caller-supplied buffers in, flat-arena
// reads inside.
func TestEstimateBatchIntoZeroAlloc(t *testing.T) {
	snap := buildTestSnapshot(t, 9)
	e := NewEngine(snap, EngineOptions{})
	n := snap.N()
	pairs := make([]Pair, 256)
	for i := range pairs {
		pairs[i] = Pair{U: (i * 7) % n, V: (i*13 + 5) % n}
	}
	out := make([]EstimateResult, len(pairs))
	if _, err := e.EstimateBatchInto(pairs, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.EstimateBatchInto(pairs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EstimateBatchInto allocates %.1f objects per warm batch, want 0", allocs)
	}
}

// writeSnapshotV2File persists snap to a file under dir and returns the
// path.
func writeSnapshotV2File(t testing.TB, dir string, snap *Snapshot) string {
	t.Helper()
	path := filepath.Join(dir, "snap.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenSnapshotFileFlatOnly covers the O(1) warm-start open: the
// returned snapshot serves byte-identical estimates straight from the
// file-backed arenas, reports the not-yet-hydrated artifacts with the
// usual sentinels, and releases its mapping on Close.
func TestOpenSnapshotFileFlatOnly(t *testing.T) {
	snap := buildTestSnapshot(t, 21)
	path := writeSnapshotV2File(t, t.TempDir(), snap)

	fast, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Flat == nil || fast.Labels != nil || fast.Idx != nil || fast.Overlay != nil || fast.Routable() {
		t.Fatalf("flat-only open materialized derived artifacts: %+v", fast)
	}
	if mmapSupported && !fast.Flat.Mapped() {
		t.Fatal("mmap supported but snapshot not file-backed")
	}
	if fast.N() != snap.N() || fast.Name != snap.Name {
		t.Fatalf("identity mismatch: n=%d/%d name=%q/%q", fast.N(), snap.N(), fast.Name, snap.Name)
	}
	n := snap.N()
	for u := 0; u < n; u += 3 {
		for v := 0; v < n; v += 5 {
			lo, up, ok := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
			want := EstimateResult{U: u, V: v, Lower: lo, Upper: up, OK: ok}
			got, err := fast.Estimate(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEstimate(got, want) {
				t.Fatalf("estimate(%d,%d) = %+v, want %+v", u, v, got, want)
			}
		}
	}
	if _, err := fast.Nearest(0); !errors.Is(err, ErrNoOverlay) {
		t.Errorf("Nearest before hydration: %v", err)
	}
	if _, err := fast.Route(0, 1); !errors.Is(err, ErrNoRouter) {
		t.Errorf("Route before hydration: %v", err)
	}
	if _, err := fast.Estimate(-1, 0); !errors.Is(err, ErrNodeRange) {
		t.Errorf("out-of-range estimate: %v", err)
	}
	fast.Close()
	if fast.Flat.Mapped() {
		t.Fatal("Close left the mapping alive")
	}
}

// TestReadSnapshotV2FullRestore checks the streaming restore: a full
// ReadSnapshot of a v2 stream rebuilds every queried artifact around the
// read buffer (and nothing else) and answers exactly like the original
// snapshot.
func TestReadSnapshotV2FullRestore(t *testing.T) {
	snap := buildTestSnapshot(t, 23)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Idx == nil || loaded.Overlay == nil || !loaded.Routable() {
		t.Fatal("full restore missing derived artifacts")
	}
	if loaded.Labels != nil || loaded.Scheme != nil || loaded.Flat.Mapped() {
		t.Fatal("restore of a labels stream built more than the arena's serving artifacts")
	}
	n := snap.N()
	for u := 0; u < n; u += 2 {
		for v := 1; v < n; v += 3 {
			lo, up, ok := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
			want := EstimateResult{U: u, V: v, Lower: lo, Upper: up, OK: ok}
			got, err := loaded.Estimate(u, v)
			if err != nil || !sameEstimate(got, want) {
				t.Fatalf("estimate(%d,%d): %+v/%v, pointer walk %+v", u, v, got, err, want)
			}
		}
	}
}

// corruptCase mutates a valid v2 snapshot file image.
type corruptCase struct {
	name    string
	mutate  func([]byte) []byte
	errWant string // substring the error must contain ("" = any error)
}

// corruptCases are the S3 integrity table over a valid v2 image:
// framing truncations, header and payload bit flips, and bogus structure.
func corruptCases(img []byte) []corruptCase {
	hdrLen := int(binary.LittleEndian.Uint32(img[len(persistMagicV2):]))
	payloadOff := int(v2PayloadOffset(hdrLen))
	return []corruptCase{
		{"truncated-magic", func(b []byte) []byte { return b[:4] }, "magic"},
		{"truncated-header-frame", func(b []byte) []byte { return b[:len(persistMagicV2)+6] }, "header frame"},
		{"truncated-header", func(b []byte) []byte { return b[:len(persistMagicV2)+12+hdrLen/2] }, "header"},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-9] }, "payload"},
		{"header-bit-flip", func(b []byte) []byte {
			b[len(persistMagicV2)+12+hdrLen/3] ^= 0x10
			return b
		}, "header checksum mismatch"},
		{"payload-bit-flip-early", func(b []byte) []byte {
			b[payloadOff+8] ^= 0x01
			return b
		}, "payload checksum mismatch"},
		{"payload-bit-flip-late", func(b []byte) []byte {
			b[len(b)-3] ^= 0x80
			return b
		}, "payload checksum mismatch"},
		{"header-length-zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(persistMagicV2):], 0)
			return b
		}, "header length"},
		{"header-length-huge", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(persistMagicV2):], 1<<30)
			return b
		}, "header length"},
		{"wrong-magic", func(b []byte) []byte {
			copy(b, "RINGSNAP9\n")
			return b
		}, "not a snapshot file"},
	}
}

// TestSnapshotV2CorruptionRejected: every corruptCases image fails
// loudly (never a silent misparse), through both the streaming reader
// and the mmap open.
func TestSnapshotV2CorruptionRejected(t *testing.T) {
	snap := buildTestSnapshot(t, 25)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	cases := corruptCases(img)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), img...))

			if _, err := ReadSnapshot(bytes.NewReader(mutated)); err == nil {
				t.Fatal("streaming reader accepted corrupt image")
			} else if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("streaming reader error %q does not mention %q", err, tc.errWant)
			} else if !strings.HasPrefix(err.Error(), "oracle:") {
				t.Fatalf("error %q lost the oracle: prefix", err)
			}

			dir := t.TempDir()
			path := filepath.Join(dir, "corrupt.bin")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenSnapshotFile(path); err == nil {
				t.Fatal("mmap open accepted corrupt image")
			} else if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("mmap open error %q does not mention %q", err, tc.errWant)
			}
		})
	}
}

// TestGoldenV1Rejected pins the retirement of the v1 format against a
// real v1 file (testdata/golden_v1.snap, written by the last commit that
// still had the writer: cube n=16 labels): both readers refuse it with
// ErrSnapshotV1 — an error that names the format and says to rebuild —
// and leave the file as it was.
func TestGoldenV1Rejected(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(golden, []byte(persistMagicV1)) {
		t.Fatal("golden file is not a v1 snapshot")
	}
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errRead := ReadSnapshot(bytes.NewReader(golden))
	_, errOpen := OpenSnapshotFile(path)
	for name, err := range map[string]error{"ReadSnapshot": errRead, "OpenSnapshotFile": errOpen} {
		if !errors.Is(err, ErrSnapshotV1) {
			t.Errorf("%s on a v1 file: %v, want ErrSnapshotV1", name, err)
			continue
		}
		for _, want := range []string{"v1", "rebuild"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not mention %q", name, err, want)
			}
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, golden) {
		t.Fatalf("refused v1 file was modified (read error %v)", err)
	}
}

// TestEngineSwapUnderConcurrentBatches is the S6 lifetime guard test:
// 16 goroutines stream EstimateBatch against mmap-backed snapshots
// while the main goroutine swaps fresh mmaps in and Closes the old one
// — under -race, and with every answer checked byte-identical against
// a reference snapshot. A pinned batch must never observe an unmapped
// arena. The last leg is the warm-boot hand-off: the served flat-only
// snapshot is hydrated and swapped for the full one that adopted its
// mapping (no Close in between), which is then swapped out and Closed
// under the same readers — the one mapping is unmapped exactly once,
// and only after the last pinned batch drains.
func TestEngineSwapUnderConcurrentBatches(t *testing.T) {
	ref := buildTestSnapshot(t, 31)
	path := writeSnapshotV2File(t, t.TempDir(), ref)
	n := ref.N()

	want := make(map[Pair]EstimateResult)
	var pairs []Pair
	for k := 0; k < 64; k++ {
		p := Pair{U: (k * 5) % n, V: (k*11 + 3) % n}
		res, err := ref.Estimate(p.U, p.V)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, p)
		want[p] = res
	}

	first, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(first, EngineOptions{})

	const readers = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]EstimateResult, len(pairs))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.EstimateBatchInto(pairs, out); err != nil {
					errCh <- err
					return
				}
				for i, p := range pairs {
					if !sameEstimate(out[i], EstimateResult{U: p.U, V: p.V, Lower: want[p].Lower, Upper: want[p].Upper, OK: want[p].OK}) {
						errCh <- fmt.Errorf("batch answer for (%d,%d) diverged: %+v", p.U, p.V, out[i])
						return
					}
				}
			}
		}()
	}

	swaps := 40
	if testing.Short() {
		swaps = 8
	}
	for s := 0; s < swaps; s++ {
		next, err := OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		old := e.Swap(next)
		old.Close() // in-flight batches hold pins; unmap happens at last unpin
	}

	fast := e.Snapshot()
	full, err := fast.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	if e.Swap(full) != fast || full.Flat != fast.Flat {
		t.Fatal("hydrate hand-off did not carry the served arena over")
	}
	if _, err := e.Nearest(1); err != nil {
		t.Fatalf("nearest after the hydrate swap: %v", err)
	}
	if e.Swap(ref) != full {
		t.Fatal("swap-out did not return the hydrated snapshot")
	}
	full.Close()
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	fast.Close() // the arena's one creation reference is already gone: a no-op
	if refs := full.Flat.refs.Load(); refs != 0 || full.Flat.Mapped() != false {
		t.Fatalf("after hand-off, swap-out and Close: refs=%d mapped=%v, want the mapping released exactly once", refs, full.Flat.Mapped())
	}
}

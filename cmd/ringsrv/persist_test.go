package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rings/internal/oracle"
	"rings/internal/shard"
)

func persistTestServer(t *testing.T, path string) *server {
	t.Helper()
	snap, err := oracle.BuildSnapshot(oracle.Config{
		Workload:    "cube",
		N:           24,
		Seed:        1,
		SkipOverlay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(oracle.NewEngine(snap, oracle.EngineOptions{}))
	s.enablePersist(path)
	return s
}

// fileState fingerprints a snapshot file: content, identity, mtime.
type fileState struct {
	data []byte
	info os.FileInfo
}

func statFile(t *testing.T, path string) fileState {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fileState{data, info}
}

// assertUntouched fails unless path is still the very file before saw:
// same inode (no rename over it), same mtime, same bytes.
func assertUntouched(t *testing.T, path string, before fileState) {
	t.Helper()
	after := statFile(t, path)
	if !os.SameFile(before.info, after.info) || !after.info.ModTime().Equal(before.info.ModTime()) || !bytes.Equal(before.data, after.data) {
		t.Fatalf("warm boot rewrote %s (same file %v, mtime %v -> %v)", path,
			os.SameFile(before.info, after.info), before.info.ModTime(), after.info.ModTime())
	}
}

// TestPersistConcurrentWritersNeverCorrupt is the regression test for
// the persistence race: with the old fixed persistPath+".tmp" scheme,
// two writers arriving from different lock domains could interleave on
// one temp file — one truncating it (os.Create) while the other
// renamed it — leaving a truncated snapshot visible at the persist
// path. Against that implementation this test fails (a concurrent
// reader observes an unparseable file); with per-writer unique temp
// files and the serialized persister it always passes.
func TestPersistConcurrentWritersNeverCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	s := persistTestServer(t, path)
	if err := s.persistCurrent(); err != nil {
		t.Fatal(err)
	}

	const writers = 6
	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			for i := 0; i < 60; i++ {
				if err := s.persistCurrent(); err != nil {
					t.Errorf("persist: %v", err)
					return
				}
			}
		}()
	}
	// A reader racing the writers must only ever see complete files:
	// the rename is atomic and only fsynced, fully written temps are
	// ever renamed over the path.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			f, err := os.Open(path)
			if err != nil {
				t.Errorf("open persisted snapshot: %v", err)
				return
			}
			_, rerr := oracle.ReadSnapshot(f)
			f.Close()
			if rerr != nil {
				t.Errorf("persisted snapshot unparseable mid-run: %v", rerr)
				return
			}
		}
	}()
	writerWg.Wait()
	close(stop)
	<-readerDone

	// The final file must round-trip byte-identically.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := oracle.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("final persisted snapshot: %v", err)
	}
	var rewritten bytes.Buffer
	if _, err := snap.WriteTo(&rewritten); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, rewritten.Bytes()) {
		t.Fatalf("write -> read -> write changed the snapshot bytes (%d vs %d)", len(data), rewritten.Len())
	}
	// No temp files may linger after clean completion.
	matches, err := filepath.Glob(path + ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// failingPayload writes a prefix then fails, simulating a snapshot
// write interrupted partway through.
type failingPayload struct{}

func (failingPayload) WriteTo(w io.Writer) (int64, error) {
	n, _ := w.Write([]byte("partial snapshot bytes"))
	return int64(n), errors.New("injected mid-write failure")
}

// TestInterruptedWriteNeverVisible: a write that fails partway must
// leave the previous file untouched and remove its temp file — the
// visible path never holds a partial write.
func TestInterruptedWriteNeverVisible(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	good := []byte("good complete snapshot")
	if err := writeFileAtomic(path, bytes.NewBuffer(good)); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, failingPayload{}); err == nil {
		t.Fatal("interrupted write reported success")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, good) {
		t.Fatalf("interrupted write disturbed the visible file: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Fatalf("stray file after interrupted write: %s", e.Name())
		}
	}
}

// TestFleetPersistAndWarmBoot: the server's per-shard persisters write
// one file per shard, and a fleet reopened from them answers like the
// one that wrote them — the -snapshot-file + -shards combination end
// to end.
func TestFleetPersistAndWarmBoot(t *testing.T) {
	cfg := shard.Config{
		Oracle: oracle.Config{Workload: "cube", N: 24, Seed: 2, SkipOverlay: true},
		Shards: 2,
	}
	fleet, err := shard.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "fleet.bin")
	s := newFleetServer(fleet, 1)
	if err := s.bootPersist(base, false); err != nil {
		t.Fatal(err)
	}
	files := make([]fileState, cfg.Shards)
	for i := range files {
		files[i] = statFile(t, shard.SnapshotPath(base, i))
	}
	reopened, err := shard.OpenFleet(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	// The warm boot serves the shard files themselves and must leave
	// every one of them alone.
	if err := newFleetServer(reopened, 1).bootPersist(base, true); err != nil {
		t.Fatal(err)
	}
	for i, before := range files {
		assertUntouched(t, shard.SnapshotPath(base, i), before)
		if snap := reopened.ShardSnapshot(i); snap.Labels != nil || snap.Flat.Bytes() == 0 {
			t.Fatalf("shard %d restored pointer labels (or no arena)", i)
		}
	}
	for u := 0; u < fleet.Universe(); u++ {
		for v := 0; v < fleet.Universe(); v += 5 {
			a, err1 := fleet.Estimate(u, v)
			b, err2 := reopened.Estimate(u, v)
			if err1 != nil || err2 != nil || a.Lower != b.Lower || a.Upper != b.Upper || a.Cross != b.Cross {
				t.Fatalf("estimate(%d,%d): %+v/%v vs %+v/%v", u, v, a, err1, b, err2)
			}
		}
	}
}

// TestHydrateFromUpgradesFlatOnlyBoot: a flat-only warm start serves
// estimates immediately, and the background hydration swaps in the full
// snapshot — built around the same arena, the file itself never
// rewritten — bringing nearest/route online with byte-identical answers.
func TestHydrateFromUpgradesFlatOnlyBoot(t *testing.T) {
	full, err := oracle.BuildSnapshot(oracle.Config{Workload: "cube", N: 32, Seed: 3, MemberStride: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	before := statFile(t, path)
	fast, err := oracle.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Idx != nil || fast.Overlay != nil {
		t.Fatal("fast open is not flat-only")
	}
	s := newServer(oracle.NewEngine(fast, oracle.EngineOptions{}))
	if _, err := s.engine.Estimate(1, 2); err != nil {
		t.Fatalf("flat-only estimate: %v", err)
	}
	if _, err := s.engine.Nearest(0); !errors.Is(err, oracle.ErrNoOverlay) {
		t.Fatalf("nearest before hydration: %v", err)
	}

	if err := s.bootPersist(path, false); err != nil {
		t.Fatal(err)
	}
	assertUntouched(t, path, before)
	deadline := time.Now().Add(10 * time.Second)
	for s.engine.Snapshot() == fast {
		if time.Now().After(deadline) {
			t.Fatal("hydration never swapped the full snapshot in")
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertUntouched(t, path, before)
	hydrated := s.engine.Snapshot()
	defer hydrated.Close()
	if hydrated.Flat != fast.Flat || hydrated.Labels != nil {
		t.Fatal("hydration did not serve the arena the boot opened")
	}
	got, err := s.engine.Nearest(0)
	if err != nil {
		t.Fatalf("nearest after hydration: %v", err)
	}
	want, err := full.Nearest(0)
	if err != nil || got.Member != want.Member || got.Dist != want.Dist {
		t.Fatalf("hydrated nearest %+v, want %+v (%v)", got, want, err)
	}
	a, _ := full.Estimate(3, 4)
	b, err := s.engine.Estimate(3, 4)
	if err != nil || a.Lower != b.Lower || a.Upper != b.Upper {
		t.Fatalf("hydrated estimate diverged: %+v vs %+v (%v)", a, b, err)
	}
}

// TestWarmBootRefusesAnotherRecipe: a warm boot whose recipe flags name
// another dataset or served structure than its file holds fails — so
// ringsrv exits 1 — with the field named, and leaves the file alone.
// Matching recipe flags, flags outside the recipe and no flags at all
// pass the check: those boots fail only later, to listen on an address
// no listener takes.
func TestWarmBootRefusesAnotherRecipe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	snap, err := oracle.BuildSnapshot(oracle.Config{Workload: "cube", N: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(oracle.NewEngine(snap, oracle.EngineOptions{}))
	s.enablePersist(path)
	if err := s.persistCurrent(); err != nil {
		t.Fatal(err)
	}
	before := statFile(t, path)
	boot := func(args ...string) error {
		savedFlags, savedArgs := flag.CommandLine, os.Args
		defer func() { flag.CommandLine, os.Args = savedFlags, savedArgs }()
		flag.CommandLine = flag.NewFlagSet("ringsrv", flag.ContinueOnError)
		os.Args = append([]string{"ringsrv", "-addr", "127.0.0.1:-1", "-snapshot-file", path}, args...)
		return run()
	}
	for field, args := range map[string][]string{
		"Workload":     {"-workload", "latency"},
		"N":            {"-workload", "cube", "-n", "32"},
		"Seed":         {"-seed", "2"},
		"Delta":        {"-delta", "0.25"},
		"Profile":      {"-profile", "paper"},
		"MemberStride": {"-members", "2"},
		"SkipOverlay":  {"-no-overlay"},
	} {
		if err := boot(args...); err == nil || !strings.Contains(err.Error(), field+" = ") {
			t.Errorf("warm boot with %v: %v, want the %s mismatch named", args, err, field)
		}
	}
	for _, args := range [][]string{
		nil,
		{"-workload", "cube", "-n", "24", "-seed", "1", "-delta", "0.5", "-profile", "tuned", "-members", "4"},
		{"-workers", "1", "-backend", "lazy", "-verify"},
	} {
		if err := boot(args...); err == nil || !strings.Contains(err.Error(), "listen") {
			t.Errorf("warm boot with %v: %v, want it past the recipe check", args, err)
		}
	}
	assertUntouched(t, path, before)
}

// TestWarmStartRejectsTruncatedSnapshot: a file cut short (the crash
// the old non-synced rename could produce) must be rejected with a
// clear error instead of warm-starting a half-decoded snapshot.
func TestWarmStartRejectsTruncatedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	s := persistTestServer(t, path)
	if err := s.persistCurrent(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int64{2, 4, 16} {
		if err := os.Truncate(path, info.Size()/frac); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := oracle.ReadSnapshot(f)
		f.Close()
		if rerr == nil {
			t.Fatalf("truncated snapshot (1/%d) decoded without error", frac)
		}
		if !strings.Contains(rerr.Error(), "oracle:") {
			t.Fatalf("truncation error lacks context: %v", rerr)
		}
	}
}

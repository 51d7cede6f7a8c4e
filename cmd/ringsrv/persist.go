package main

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// persister owns snapshot persistence for the server: one path, one
// serialized writer at a time, latest-wins coalescing across callers.
//
// Two guarantees the naive "write path.tmp, rename" scheme lacked:
//
//   - Writers serialize on mu and each write goes to a unique
//     os.CreateTemp file, so two callers arriving from different lock
//     domains (a /snapshot rebuild and a /join repair, or two shards)
//     can never interleave bytes in one temp file and rename a corrupt
//     snapshot over a good one.
//   - The temp file is fsynced before the atomic rename, and the
//     directory after it, so a crash can never leave a truncated file at
//     the visible path nor lose the rename — the warm-start path either
//     sees the old complete snapshot or the new complete snapshot.
//
// Coalescing: callers take a generation ticket before blocking on mu.
// The writer that holds the lock reads the latest snapshot and marks
// every ticket issued so far as covered; a caller whose ticket was
// covered by a later writer returns without touching the disk. Under a
// mutation burst the disk sees a handful of writes, not one per commit.
type persister struct {
	path string
	// gen counts persistence requests; covered (under mu) is the
	// highest request generation whose snapshot is known to be on disk.
	gen     atomic.Int64
	mu      sync.Mutex
	covered int64
}

func newPersister(path string) *persister { return &persister{path: path} }

// persist writes the snapshot current() yields to the path. current is
// called under the writer lock, after the coalescing check, so it
// always observes a snapshot at least as new as the caller's commit.
func (p *persister) persist(current func() io.WriterTo) error {
	if p == nil || p.path == "" {
		return nil
	}
	gen := p.gen.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.covered >= gen {
		return nil // a later writer already persisted a newer snapshot
	}
	// Every generation issued up to here is covered by the snapshot we
	// are about to read: its commit happened before its ticket, which
	// happened before this load.
	covered := p.gen.Load()
	if err := writeFileAtomic(p.path, current()); err != nil {
		return err
	}
	p.covered = covered
	return nil
}

// writeFileAtomic writes payload to a unique temp file in path's
// directory, fsyncs it, atomically renames it over path and fsyncs the
// directory, which is what makes the new name itself durable. On any
// error before the rename the temp file is removed and path is left
// untouched — a write-interrupted file is never visible at path.
func writeFileAtomic(path string, payload io.WriterTo) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// A v2 snapshot's WriteTo is a handful of writes — the framing, then
	// the whole arena in one — so it goes to the file unbuffered.
	if _, err := payload.WriteTo(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

package oracle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rings/internal/distlabel"
)

// TestCacheEraIsolation is the cache-era property: a cached entry can
// never serve a query against a later snapshot. Readers hammer the
// estimate path (warming the cache hard) while snapshots with genuinely
// different answers swap underneath; every result must match the pointer
// walk over the labels of the snapshot of the version it reports. Run under -race this
// also covers the atomic state-pair publication.
func TestCacheEraIsolation(t *testing.T) {
	// Distinct seeds give distinct point clouds: any era leak yields a
	// wrong (lower, upper) pair for the reported version.
	snaps := make([]*Snapshot, 0, 6)
	for seed := int64(1); seed <= 6; seed++ {
		cfg := Config{Workload: "cube", N: 48, Seed: seed, SkipOverlay: true}
		snap, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	engine := NewEngine(snaps[0], EngineOptions{CacheShards: 2, CacheCapacity: 64})

	var mu sync.Mutex
	byVersion := map[int64]*Snapshot{snaps[0].Version: snaps[0]}

	stop := make(chan struct{})
	errc := make(chan error, 17)
	var wg sync.WaitGroup
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r + 1)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := rng.Intn(48), rng.Intn(48)
				res, err := engine.Estimate(u, v)
				if err != nil {
					errc <- err
					return
				}
				mu.Lock()
				snap := byVersion[res.Version]
				mu.Unlock()
				if snap == nil {
					errc <- fmt.Errorf("reader %d: answer from unknown version %d", r, res.Version)
					return
				}
				lo, up, ok := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
				if res.Lower != lo || res.Upper != up || res.OK != ok {
					errc <- fmt.Errorf("reader %d: stale-era answer: version %d got %+v want (%v, %v, %v)",
						r, res.Version, res, lo, up, ok)
					return
				}
			}
		}(r)
	}

	// Swap through every snapshot while sampling cache counters: within
	// one era the eviction counter must be monotone (it only ever
	// increments), and each swap resets the era (counters restart at
	// zero with the fresh cache).
	lastVersion, lastEvictions := int64(0), int64(-1)
	checkMonotone := func() {
		st := engine.Stats()
		if st.Version == lastVersion {
			if st.Cache.Evictions < lastEvictions {
				t.Errorf("evictions went backwards within era %d: %d -> %d",
					st.Version, lastEvictions, st.Cache.Evictions)
			}
			lastEvictions = st.Cache.Evictions
		} else {
			lastVersion, lastEvictions = st.Version, st.Cache.Evictions
		}
	}
	for _, snap := range snaps[1:] {
		for i := 0; i < 40; i++ {
			checkMonotone()
		}
		mu.Lock()
		engine.Swap(snap)
		byVersion[snap.Version] = snap
		mu.Unlock()
		checkMonotone()
	}
	for i := 0; i < 40; i++ {
		checkMonotone()
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The final era's counters describe a live cache (drive traffic from
	// this goroutine — on GOMAXPROCS=1 the readers may never have been
	// scheduled inside the last era's window).
	for u := 0; u < 48; u++ {
		for v := 0; v < 48; v++ {
			if _, err := engine.Estimate(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := engine.Stats()
	if st.Cache.Hits == 0 && st.Cache.Misses == 0 {
		t.Fatal("cache saw no traffic in the final era")
	}
	if st.Cache.Size > 2*64 {
		t.Fatalf("cache size %d exceeds capacity", st.Cache.Size)
	}
}

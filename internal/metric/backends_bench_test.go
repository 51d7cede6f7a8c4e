// Backend benchmarks: the two headline numbers of the pluggable-backend
// refactor. BenchmarkIndexBuild measures the parallel eager build against
// the serial baseline (the speedup tracks core count; run on a multi-core
// machine). BenchmarkBackendMemory measures allocation under a typical
// ring/net construction mix on the clustered "Internet latency" space —
// the Meridian regime where the lazy backend's memory bound pays off.
// TestLazyMemoryBounded asserts the memory ratio so regressions fail CI.
package metric_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rings/internal/metric"
	"rings/internal/nets"
)

// latencySpace mirrors workload.Latency (which lives above metric in the
// dependency order): the clustered Internet-latency metric of the
// Meridian motivation.
func latencySpace(tb testing.TB, n int) metric.Space {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	space, err := metric.NewClusteredLatency(n, 3, []int{4, 4}, []float64{300, 60, 10}, 3, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return space
}

// ringNetQueryMix runs the query load of a typical substrate
// construction: a full nested net hierarchy (greedy nets at every
// routing scale), Meridian-style bounded-cardinality rings for every
// node, and nearest-net-point climbs for a node sample.
func ringNetQueryMix(tb testing.TB, idx metric.BallIndex) {
	tb.Helper()
	h, err := nets.NewHierarchy(idx, nets.RoutingScales(idx))
	if err != nil {
		tb.Fatal(err)
	}
	n := idx.N()
	for u := 0; u < n; u++ {
		for _, k := range []int{8, 32} {
			r := idx.RadiusForCount(u, k)
			if got := len(idx.Ball(u, r)); got < k {
				tb.Fatalf("Ball(%d, RadiusForCount(%d,%d)) has %d nodes", u, u, k, got)
			}
		}
	}
	for u := 0; u < n; u += 97 {
		for lvl := 0; lvl < h.NumLevels(); lvl += 3 {
			h.NearestInLevel(lvl, u)
		}
	}
}

func backendUnderMix(tb testing.TB, space metric.Space, opts metric.Options) metric.BallIndex {
	tb.Helper()
	idx := metric.New(space, opts)
	ringNetQueryMix(tb, idx)
	return idx
}

// BenchmarkIndexBuild compares the serial eager build against the
// worker-pool build on the clustered latency space, at n = 1024 (the
// served build's size) and n = 4096. On a multi-core machine the
// parallel build is ~core-count faster; both are exact.
func BenchmarkIndexBuild(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		space := latencySpace(b, n)
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metric.New(space, metric.Options{Workers: 1})
			}
		})
		b.Run(fmt.Sprintf("n=%d/parallel", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metric.New(space, metric.Options{})
			}
		})
	}
}

// BenchmarkBackendMemory builds each backend on the n=10000 clustered
// latency space and drives the ring/net query mix; B/op is the headline
// comparison (run with -benchtime 1x: the fixture is large).
func BenchmarkBackendMemory(b *testing.B) {
	const n = 10000
	space := latencySpace(b, n)
	for _, bc := range []struct {
		name string
		opts metric.Options
	}{
		{"eager", metric.Options{Backend: metric.Eager}},
		{"lazy", metric.Options{Backend: metric.Lazy}},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				backendUnderMix(b, space, bc.opts)
			}
		})
	}
}

// allocDelta reports the heap bytes allocated while f runs and the bytes
// still retained by what f returns.
func allocDelta(f func() any) (total, retained uint64) {
	var before, after, final runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := f()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&final)
	runtime.KeepAlive(keep)
	return after.TotalAlloc - before.TotalAlloc, final.HeapAlloc - before.HeapAlloc
}

// TestLazyMemoryBounded asserts the lazy backend allocates at most a
// quarter of the eager backend, both in total and retained bytes, under
// the ring/net query mix. The size is kept moderate so the assertion is
// cheap enough for every CI run (the n=10000 headline lives in
// BenchmarkBackendMemory).
func TestLazyMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory comparison is slow; skipped with -short")
	}
	const n = 2000
	space := latencySpace(t, n)
	eagerTotal, eagerRetained := allocDelta(func() any {
		return backendUnderMix(t, space, metric.Options{Backend: metric.Eager})
	})
	lazyTotal, lazyRetained := allocDelta(func() any {
		return backendUnderMix(t, space, metric.Options{Backend: metric.Lazy})
	})
	t.Logf("eager: total=%d retained=%d; lazy: total=%d retained=%d (ratios %.3f, %.3f)",
		eagerTotal, eagerRetained, lazyTotal, lazyRetained,
		float64(lazyTotal)/float64(eagerTotal), float64(lazyRetained)/float64(eagerRetained))
	if 4*lazyTotal > eagerTotal {
		t.Errorf("lazy total allocation %d exceeds 25%% of eager %d", lazyTotal, eagerTotal)
	}
	if 4*lazyRetained > eagerRetained {
		t.Errorf("lazy retained allocation %d exceeds 25%% of eager %d", lazyRetained, eagerRetained)
	}
}

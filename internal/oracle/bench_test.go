package oracle

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// benchSnapshot is the serving snapshot the throughput benchmarks share:
// the dataset ringperf serves (latency, tuned, δ = 0.5, labels,
// n = 1024), without overlay or router.
var benchSnapshot struct {
	once sync.Once
	snap *Snapshot
	err  error
}

func benchSnap(b *testing.B) *Snapshot {
	benchSnapshot.once.Do(func() {
		benchSnapshot.snap, benchSnapshot.err = BuildSnapshot(Config{
			Workload:    "latency",
			N:           1024,
			Seed:        1,
			Delta:       0.5,
			Profile:     ProfileTuned,
			SkipOverlay: true,
		})
	})
	if benchSnapshot.err != nil {
		b.Fatal(benchSnapshot.err)
	}
	return benchSnapshot.snap
}

func benchPairs(n, count int) []Pair {
	rng := rand.New(rand.NewSource(42))
	pairs := make([]Pair, count)
	for i := range pairs {
		pairs[i] = Pair{U: rng.Intn(n), V: rng.Intn(n)}
	}
	return pairs
}

// BenchmarkEngineEstimate measures single-pair estimate throughput on
// benchSnap, cache cold (caching disabled, every query a walk of the
// flat arena) vs warm (default cache, working set pre-touched so every
// query is a shard-lock + map hit). EXPERIMENTS.md §S1 records a run.
func BenchmarkEngineEstimate(b *testing.B) {
	snap := benchSnap(b)
	n := snap.N()

	b.Run("cold", func(b *testing.B) {
		e := NewEngine(snap.clone(), EngineOptions{CacheCapacity: -1})
		pairs := benchPairs(n, 1<<17)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i&(len(pairs)-1)]
			if _, err := e.Estimate(p.U, p.V); err != nil {
				b.Fatal(err)
			}
		}
		reportQPS(b)
	})

	b.Run("warm", func(b *testing.B) {
		e := NewEngine(snap.clone(), EngineOptions{})
		pairs := benchPairs(n, 1<<13) // 8192 pairs fit the 16x4096 cache
		for _, p := range pairs {
			if _, err := e.Estimate(p.U, p.V); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i&(len(pairs)-1)]
			if _, err := e.Estimate(p.U, p.V); err != nil {
				b.Fatal(err)
			}
		}
		reportQPS(b)
	})
}

// BenchmarkEngineEstimateParallel is the contended version: GOMAXPROCS
// goroutines over a warm cache, the shape ringsrv sees under ringload.
func BenchmarkEngineEstimateParallel(b *testing.B) {
	snap := benchSnap(b)
	n := snap.N()
	e := NewEngine(snap.clone(), EngineOptions{})
	pairs := benchPairs(n, 1<<13)
	for _, p := range pairs {
		if _, err := e.Estimate(p.U, p.V); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := pairs[i&(len(pairs)-1)]
			i++
			if _, err := e.Estimate(p.U, p.V); err != nil {
				b.Fatal(err)
			}
		}
	})
	reportQPS(b)
}

// BenchmarkEstimateBatchFlat measures the zero-alloc batch path on the
// dataset ringperf serves (latency, tuned, δ = 0.5, labels, n = 1024):
// whole 256-pair batches answered straight from the flat arenas into a
// reused caller buffer, cache bypassed. "hot" cycles 16 distinct pairs,
// whose spans stay in cache; "uniform" cycles 1,024 distinct batches of
// uniform pairs, which touch the whole arena the way /batch traffic does,
// and is the figure to compare with the server's per-pair cost. The walk
// waits on memory as well as computing: hot costs ~1.4 µs/pair and
// uniform ~1.9 µs on 2 cores, so a uniform pair spends about a quarter of
// its time on cache misses. Each sub-benchmark reports ns/pair and the
// arena's B/node. Run with -benchmem: allocs/op is 0 on both.
func BenchmarkEstimateBatchFlat(b *testing.B) {
	snap, err := BuildSnapshot(Config{
		Workload: "latency", N: 1024, Seed: 1, Delta: 0.5,
		Scheme: SchemeLabels, Profile: ProfileTuned,
		SkipOverlay: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(snap, EngineOptions{})
	const batchSize = 256
	for _, bc := range []struct {
		name     string
		distinct int // distinct pairs, cycled through batch after batch
	}{{"hot", 16}, {"uniform", 1024 * batchSize}} {
		b.Run(bc.name, func(b *testing.B) {
			distinct := benchPairs(snap.N(), bc.distinct)
			pairs := make([]Pair, max(len(distinct), batchSize))
			for i := range pairs {
				pairs[i] = distinct[i%len(distinct)]
			}
			batches := len(pairs) / batchSize
			out := make([]EstimateResult, batchSize)
			if _, err := e.EstimateBatchInto(pairs[:batchSize], out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i % batches * batchSize
				if _, err := e.EstimateBatchInto(pairs[at:at+batchSize], out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/pair")
			b.ReportMetric(float64(snap.Flat.Bytes())/float64(snap.N()), "B/node")
		})
	}
}

// BenchmarkBuildSnapshot measures the cold build of ringperf's
// point-uniform server (latency, n = 1024, tuned, δ = 0.5, labels and
// overlay; n = 256 under -short) and reports each phase's ms/build from
// the snapshot's BuildStats. "build" times BuildSnapshot, whose labels
// and overlay build concurrently, so its phases sum to more than total;
// "served" times BuildServed, the call ringsrv's cold boot makes, whose
// one overlay is the restore's and whose total includes the restore. It
// also reports what the build allocates (alloc-MB/build) and what the
// last snapshot holds live after a collection (live-MB, HeapInuse
// growth, the figure TestColdBuildHeapCeiling bounds at n = 256 for
// "build"). No build makes the router, so router-ms/first-route times
// one Router call on the last snapshot, after those figures: the wait
// of its first /route. peak-MB/build is the largest memory the runtime
// held during the builds, sampled every 500 µs as
// /memory/classes/total:bytes less what it has returned to the OS
// (heap/released; total alone only grows, so it would carry an earlier
// sub-benchmark's peak into the next); each sub-benchmark starts from a
// collection that returns every free page, and the figure includes the
// test process's own baseline.
func BenchmarkBuildSnapshot(b *testing.B) {
	n := 1024
	if testing.Short() {
		n = 256
	}
	cfg := Config{
		Workload: "latency", N: n, Seed: 1, Delta: 0.5,
		Scheme: SchemeLabels, Profile: ProfileTuned,
	}
	phases := []struct {
		name string
		sec  func(BuildStats) float64
	}{
		{"index", func(s BuildStats) float64 { return s.IndexSec }},
		{"construction", func(s BuildStats) float64 {
			return s.NetsSec + s.RadiiSec + s.PackingsSec + s.RingsSec
		}},
		{"zsets", func(s BuildStats) float64 { return s.ZSetsSec }},
		{"tsets", func(s BuildStats) float64 { return s.TSetsSec }},
		{"hostenums", func(s BuildStats) float64 { return s.HostEnumsSec }},
		{"fill", func(s BuildStats) float64 { return s.LabelFillSec }},
		{"overlay", func(s BuildStats) float64 { return s.OverlaySec }},
		{"pack", func(s BuildStats) float64 { return s.PackSec }},
		{"total", func(s BuildStats) float64 { return s.TotalSec }},
	}
	for _, bc := range []struct {
		name  string
		build func(Config) (*Snapshot, error)
	}{
		{"build", BuildSnapshot},
		{"served", BuildServed},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sums := make([]float64, len(phases))
			var ms runtime.MemStats
			b.StopTimer()
			before := heapInuse()
			debug.FreeOSMemory()
			runtime.ReadMemStats(&ms)
			allocated := ms.TotalAlloc
			peak := samplePeak()
			b.StartTimer()
			var snap *Snapshot
			for i := 0; i < b.N; i++ {
				var err error
				if snap, err = bc.build(cfg); err != nil {
					b.Fatal(err)
				}
				for p, ph := range phases {
					sums[p] += ph.sec(snap.Build)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(peak())/(1<<20), "peak-MB/build")
			runtime.ReadMemStats(&ms)
			allocated = ms.TotalAlloc - allocated
			live := heapInuse() - before
			t0 := time.Now()
			if _, err := snap.Router(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(time.Since(t0).Microseconds())/1e3, "router-ms/first-route")
			for p, ph := range phases {
				b.ReportMetric(sums[p]*1e3/float64(b.N), ph.name+"-ms/build")
			}
			b.ReportMetric(float64(allocated)/(1<<20)/float64(b.N), "alloc-MB/build")
			b.ReportMetric(float64(live)/(1<<20), "live-MB")
		})
	}
}

// samplePeak samples the memory the runtime holds from the OS —
// /memory/classes/total:bytes less /memory/classes/heap/released:bytes —
// every 500 µs until the returned stop is called, which reports the
// largest sample.
func samplePeak() (stop func() uint64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	done, result := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}

func reportQPS(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "queries/s")
	}
}

// clone returns a copy of the bench snapshot (no overlay, no router)
// sharing every immutable artifact, so each benchmark engine can
// install "its own" snapshot (Swap assigns Version, which must not be
// rewritten on a published snapshot). Field by field: a Snapshot holds a
// sync.Once and is not copyable.
func (s *Snapshot) clone() *Snapshot {
	return &Snapshot{
		Config: s.Config, Name: s.Name, Idx: s.Idx,
		BuildElapsed: s.BuildElapsed, Build: s.Build, Flat: s.Flat, n: s.n,
	}
}

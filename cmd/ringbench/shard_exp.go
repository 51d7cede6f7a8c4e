package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/oracle"
	"rings/internal/shard"
	"rings/internal/stats"
	"rings/internal/version"
)

// shardBenchFile is the BENCH_shard.json schema: one row per workload
// family comparing the K-shard fleet against a single engine over the
// same global instance.
type shardBenchFile struct {
	Schema       string          `json:"schema"`
	BuildVersion string          `json:"build_version"`
	Seed         int64           `json:"seed"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	Rows         []shardBenchRow `json:"rows"`
}

const shardBenchSchema = "rings/bench-shard/v1"

// shardBenchRow is one measured family.
type shardBenchRow struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Shards   int    `json:"shards"`
	Beacons  int    `json:"beacons"`

	// Build cost: the whole fleet (K concurrent shard builds) vs one
	// engine over the same global space.
	FleetBuildSec  float64 `json:"fleet_build_sec"`
	SingleBuildSec float64 `json:"single_build_sec"`

	// Per-query latency on the warm fleet, split by pair locality.
	IntraP50Us float64 `json:"intra_p50_us"`
	IntraP95Us float64 `json:"intra_p95_us"`
	CrossP50Us float64 `json:"cross_p50_us"`
	CrossP95Us float64 `json:"cross_p95_us"`

	// Cross-shard estimate quality against the true metric, measured —
	// not assumed — per instance: every sampled pair's sandwich
	// lower <= d <= upper is asserted before the stretch is recorded
	// (a violation fails the experiment), so StretchMax is a checked
	// bound for this instance. CertifiedMax is the worst upper/lower
	// ratio — the bound the beacon tier itself certifies per answer
	// without knowing d; measured stretch can never exceed it.
	StretchMean  float64 `json:"stretch_mean"`
	StretchP95   float64 `json:"stretch_p95"`
	StretchMax   float64 `json:"stretch_max"`
	CertifiedMax float64 `json:"certified_max"`
	// WithinDelta is the fraction of sampled cross pairs whose stretch
	// stays within the intra-shard guarantee 1+δ — the ε of the shared
	// beacon scheme's (ε,δ) framing.
	WithinDelta float64 `json:"within_delta"`
	CrossPairs  int     `json:"cross_pairs"`

	// Aggregate warm throughput: GOMAXPROCS closed-loop workers over a
	// mixed intra/cross pool against the fleet vs the same pool (same
	// ids) against the single engine. SpeedupX = FleetQPS / SingleQPS.
	FleetQPS  float64 `json:"fleet_qps"`
	SingleQPS float64 `json:"single_qps"`
	SpeedupX  float64 `json:"speedup_x"`
}

// shardFamilies are the four workload families at bench scale.
func shardFamilies(seed int64, quick bool) []oracle.Config {
	if quick {
		return []oracle.Config{
			{Workload: "grid", Side: 12},
			{Workload: "cube", N: 192, Seed: seed},
			{Workload: "expline", N: 192, LogAspect: 60},
			{Workload: "latency", N: 192, Seed: seed},
		}
	}
	return []oracle.Config{
		{Workload: "grid", Side: 22},
		{Workload: "cube", N: 512, Seed: seed},
		{Workload: "expline", N: 512, LogAspect: 60},
		{Workload: "latency", N: 512, Seed: seed},
	}
}

// expShard measures the sharded fleet on every workload family:
// intra vs cross latency, measured cross-shard stretch (sandwich
// checked per pair), and K-way aggregate throughput against the
// single-engine baseline. Routing and the overlay are disabled on both
// sides — the experiment isolates the estimate path, which is the
// only path the beacon tier changes.
func expShard(seed int64, quick bool) error {
	section("SH1 / shard: partitioned fleet vs single engine")
	const k = 4
	pairSample := 2000
	measure := 400 * time.Millisecond
	if quick {
		pairSample = 600
		measure = 150 * time.Millisecond
	}

	tbl := stats.NewTable("workload", "n", "intra p50", "cross p50", "stretch mean", "stretch max",
		"within 1+d", "fleet qps", "single qps", "speedup")
	var rows []shardBenchRow
	for _, cfg := range shardFamilies(seed, quick) {
		cfg.Scheme = oracle.SchemeLabels
		cfg.Backend = benchBackend
		cfg.Workers = benchWorkers
		cfg.SkipRouting = true
		cfg.SkipOverlay = true

		fleet, err := shard.NewFleet(shard.Config{Oracle: cfg, Shards: k})
		if err != nil {
			return fmt.Errorf("fleet %s: %w", cfg.Workload, err)
		}
		single, err := oracle.BuildSnapshot(cfg)
		if err != nil {
			return fmt.Errorf("single %s: %w", cfg.Workload, err)
		}
		engine := oracle.NewEngine(single, oracle.EngineOptions{})
		n := fleet.N()
		if single.N() != n {
			return fmt.Errorf("%s: fleet n=%d single n=%d", cfg.Workload, n, single.N())
		}
		space, _, err := cfg.Spec().Space()
		if err != nil {
			return err
		}

		rng := rand.New(rand.NewSource(seed + 41))
		intraPairs := make([]oracle.Pair, pairSample)
		crossPairs := make([]oracle.Pair, pairSample)
		for i := range intraPairs {
			u := rng.Intn(n)
			v := rng.Intn((n+k-1-u%k)/k)*k + u%k
			intraPairs[i] = oracle.Pair{U: u, V: v}
			u = rng.Intn(n)
			w := rng.Intn(n)
			for w%k == u%k {
				w = rng.Intn(n)
			}
			crossPairs[i] = oracle.Pair{U: u, V: w}
		}

		row := shardBenchRow{
			Workload:       fleet.Name(),
			N:              n,
			Shards:         k,
			Beacons:        fleet.Beacons(),
			FleetBuildSec:  fleet.BuildElapsed().Seconds(),
			SingleBuildSec: single.Build.TotalSec,
		}

		// Cross-shard quality: assert the sandwich against the true
		// metric for every sampled pair, then record the realized
		// stretch. This is the per-instance check of the beacon tier's
		// bound — StretchMax is measured, CertifiedMax is what the
		// answers themselves guarantee.
		var stretches []float64
		within := 0
		delta := single.Config.Delta
		for _, p := range crossPairs {
			res, err := fleet.Estimate(p.U, p.V)
			if err != nil {
				return err
			}
			d := space.Dist(p.U, p.V)
			if res.Lower > d || d > res.Upper {
				return fmt.Errorf("%s: beacon sandwich violated for (%d,%d): lower=%v d=%v upper=%v",
					row.Workload, p.U, p.V, res.Lower, d, res.Upper)
			}
			if d > 0 {
				st := res.Upper / d
				stretches = append(stretches, st)
				if st <= 1+delta {
					within++
				}
			}
			if res.Lower > 0 {
				if c := res.Upper / res.Lower; c > row.CertifiedMax {
					row.CertifiedMax = c
				}
			}
		}
		sum := stats.Summarize(stretches)
		row.StretchMean, row.StretchP95, row.StretchMax = sum.Mean, sum.P95, sum.Max
		row.WithinDelta = float64(within) / float64(len(stretches))
		row.CrossPairs = len(stretches)

		// Warm per-query latency, split by locality (one warm-up pass
		// fills the shard caches, mirroring steady-state serving).
		lat := func(pairs []oracle.Pair) stats.Summary {
			for _, p := range pairs {
				if _, err := fleet.Estimate(p.U, p.V); err != nil {
					panic(err)
				}
			}
			us := make([]float64, len(pairs))
			for i, p := range pairs {
				t0 := time.Now()
				if _, err := fleet.Estimate(p.U, p.V); err != nil {
					panic(err)
				}
				us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
			}
			return stats.Summarize(us)
		}
		intraSum := lat(intraPairs)
		crossSum := lat(crossPairs)
		row.IntraP50Us, row.IntraP95Us = intraSum.P50, intraSum.P95
		row.CrossP50Us, row.CrossP95Us = crossSum.P50, crossSum.P95

		// Aggregate warm throughput over a mixed pool: the same pairs,
		// the same worker count, fleet vs single engine.
		mixed := append(append([]oracle.Pair(nil), intraPairs...), crossPairs...)
		row.FleetQPS = throughput(measure, mixed, func(p oracle.Pair) {
			if _, err := fleet.Estimate(p.U, p.V); err != nil {
				panic(err)
			}
		})
		row.SingleQPS = throughput(measure, mixed, func(p oracle.Pair) {
			if _, err := engine.Estimate(p.U, p.V); err != nil {
				panic(err)
			}
		})
		if row.SingleQPS > 0 {
			row.SpeedupX = row.FleetQPS / row.SingleQPS
		}

		rows = append(rows, row)
		tbl.AddRow(row.Workload, row.N,
			fmt.Sprintf("%.1fus", row.IntraP50Us), fmt.Sprintf("%.1fus", row.CrossP50Us),
			fmt.Sprintf("%.3f", row.StretchMean), fmt.Sprintf("%.3f", row.StretchMax),
			fmt.Sprintf("%.0f%%", row.WithinDelta*100),
			fmt.Sprintf("%.2fM", row.FleetQPS/1e6), fmt.Sprintf("%.2fM", row.SingleQPS/1e6),
			fmt.Sprintf("%.2fx", row.SpeedupX))
	}
	fmt.Print(tbl.String())
	fmt.Println("\nIntra-shard answers are byte-identical to a standalone engine over the shard")
	fmt.Println("subspace (delegation); cross-shard answers are beacon-tier sandwich bounds,")
	fmt.Println("checked per pair against the true metric above. The >=2x K-way throughput")
	fmt.Println("criterion applies on the multi-core CI runner.")
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("NOTE: GOMAXPROCS=1 — aggregate throughput cannot exceed the single engine")
		fmt.Println("here; per-shard build/query parity above is the single-core fallback check.")
	}

	if jsonOut {
		file := shardBenchFile{
			Schema:       shardBenchSchema,
			BuildVersion: version.String(),
			Seed:         seed,
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			Rows:         rows,
		}
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(shardOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d rows)\n", shardOut, len(rows))
	}
	return nil
}

// throughput runs GOMAXPROCS closed-loop workers over the pair pool
// for roughly the given duration and reports queries per second.
func throughput(d time.Duration, pool []oracle.Pair, query func(oracle.Pair)) float64 {
	workers := runtime.GOMAXPROCS(0)
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w * 37
			count := 0
			for time.Now().Before(deadline) {
				// Batch between clock reads so the timer is off the
				// hot path.
				for j := 0; j < 256; j++ {
					query(pool[i%len(pool)])
					i++
				}
				count += 256
			}
			done.Add(int64(count))
		}(w)
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/oracle"
	"rings/internal/shard"
	"rings/internal/stats"
	"rings/internal/version"
)

// serveBenchFile is the BENCH_serve.json schema: one row per instance
// size measuring the warm serving path — single-engine and K=4 fleet
// throughput with per-query percentiles, the flat batch path's
// allocations per query, and the warm-start wall time of the full
// restore and of the mmap open. CI uploads the file as an
// artifact and gates merges on the largest size both runs measured
// (see -baseline).
type serveBenchFile struct {
	Schema       string          `json:"schema"`
	BuildVersion string          `json:"build_version"`
	Seed         int64           `json:"seed"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	Rows         []serveBenchRow `json:"rows"`
}

const serveBenchSchema = "rings/bench-serve/v1"

// serveBenchRow is one measured instance size.
type serveBenchRow struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`

	// Warm single-engine serving: closed-loop GOMAXPROCS workers over
	// the zero-alloc batch path (qps counts pairs answered), per-query
	// latency sampled as one-pair batches, and the measured heap
	// allocations per query on the warm path.
	SingleQPS   float64 `json:"single_qps"`
	SingleP50Us float64 `json:"single_p50_us"`
	SingleP99Us float64 `json:"single_p99_us"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// The same pool (plus an equal cross-shard half) against a K-shard
	// fleet over the same global instance.
	FleetShards int     `json:"fleet_shards"`
	FleetQPS    float64 `json:"fleet_qps"`
	FleetP50Us  float64 `json:"fleet_p50_us"`
	FleetP99Us  float64 `json:"fleet_p99_us"`

	// Warm-start wall time from a persisted file: the full restore
	// (arena read into one buffer, derived artifacts rebuilt around it)
	// and the serve-immediately open (mmap + checksum validation).
	WarmV2RestoreSec float64 `json:"warm_v2_restore_sec"`
	WarmV2OpenSec    float64 `json:"warm_v2_open_sec"`
	// Mapped reports whether the v2 open actually mmapped (false on
	// platforms without mmap, where the open falls back to one bulk
	// read — the open column then measures that path).
	Mapped bool `json:"mapped"`
}

// expServe measures the serving frontier on the latency workload
// (labels scheme, tuned profile — the configuration BENCH_shard.json
// showed is query-bound): warm flat-path throughput and latency on a
// single engine and a 4-shard fleet, allocations per warm query, and
// the two warm-start paths from a persisted file.
// With -json the rows go to -serveout; with -baseline the run fails if
// throughput at the gate size regressed more than 25%.
func expServe(seed int64, quick bool) error {
	section("SV1 / serve: flat arenas, zero-alloc batches, mmap warm starts")
	const k = 4
	sizes := []int{512, 4096}
	pairSample := 4000
	measure := 400 * time.Millisecond
	if quick {
		sizes = []int{512}
		pairSample = 1500
		measure = 150 * time.Millisecond
	}

	tbl := stats.NewTable("n", "single qps", "p50", "p99", "allocs/op",
		"fleet qps", "fleet p50", "v2 restore", "v2 open")
	var rows []serveBenchRow
	for _, n := range sizes {
		cfg := oracle.Config{
			Workload:    "latency",
			N:           n,
			Seed:        seed,
			Scheme:      oracle.SchemeLabels,
			Profile:     oracle.ProfileTuned,
			Backend:     benchBackend,
			Workers:     benchWorkers,
			SkipRouting: true,
			SkipOverlay: true,
		}
		snap, err := oracle.BuildSnapshot(cfg)
		if err != nil {
			return fmt.Errorf("build n=%d: %w", n, err)
		}
		engine := oracle.NewEngine(snap, oracle.EngineOptions{})

		rng := rand.New(rand.NewSource(seed + 67))
		pool := make([]oracle.Pair, pairSample)
		for i := range pool {
			pool[i] = oracle.Pair{U: rng.Intn(n), V: rng.Intn(n)}
		}

		row := serveBenchRow{Workload: snap.Name, N: n, FleetShards: k}

		// Allocations per warm query: the batch loop reuses one result
		// buffer, so after warm-up every malloc below is the serving
		// path's own. The flat-path unit test asserts exactly zero; this
		// records the measured number alongside the throughput it buys.
		const allocBatch = 256
		batch := pool[:allocBatch]
		out := make([]oracle.EstimateResult, allocBatch)
		if _, err := engine.EstimateBatchInto(batch, out); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		const allocIters = 200
		for i := 0; i < allocIters; i++ {
			if _, err := engine.EstimateBatchInto(batch, out); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		row.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(allocIters*allocBatch)

		// Per-query latency: one-pair batches so each sample is a full
		// serve-path round trip (state load, arena pin, flat walk).
		one := make([]oracle.Pair, 1)
		oneOut := make([]oracle.EstimateResult, 1)
		lats := make([]float64, len(pool))
		for i, p := range pool {
			one[0] = p
			t0 := time.Now()
			if _, err := engine.EstimateBatchInto(one, oneOut); err != nil {
				return err
			}
			lats[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}
		sum := stats.Summarize(lats)
		row.SingleP50Us, row.SingleP99Us = sum.P50, sum.P99

		row.SingleQPS = batchThroughput(measure, pool, func(pairs []oracle.Pair, buf []oracle.EstimateResult) {
			if _, err := engine.EstimateBatchInto(pairs, buf); err != nil {
				panic(err)
			}
		})

		// The fleet over the same global instance, driven by a 50/50
		// intra/cross mix (cross answers come from the beacon tier).
		fleet, err := shard.NewFleet(shard.Config{Oracle: cfg, Shards: k})
		if err != nil {
			return fmt.Errorf("fleet n=%d: %w", n, err)
		}
		mixed := make([]oracle.Pair, 0, 2*len(pool))
		for _, p := range pool {
			v := p.V - p.V%k + p.U%k // snap V onto U's shard
			if v >= n {
				v = p.U
			}
			mixed = append(mixed, oracle.Pair{U: p.U, V: v})
			w := p.V
			for w%k == p.U%k {
				w = (w + 1) % n
			}
			mixed = append(mixed, oracle.Pair{U: p.U, V: w})
		}
		flats := make([]float64, len(mixed))
		for i, p := range mixed {
			t0 := time.Now()
			if _, err := fleet.Estimate(p.U, p.V); err != nil {
				return err
			}
			flats[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}
		fsum := stats.Summarize(flats)
		row.FleetP50Us, row.FleetP99Us = fsum.P50, fsum.P99
		row.FleetQPS = throughput(measure, mixed, func(p oracle.Pair) {
			if _, err := fleet.Estimate(p.U, p.V); err != nil {
				panic(err)
			}
		})

		if err := measureWarmStart(snap, &row); err != nil {
			return err
		}

		rows = append(rows, row)
		tbl.AddRow(n,
			fmt.Sprintf("%.2fM", row.SingleQPS/1e6),
			fmt.Sprintf("%.1fus", row.SingleP50Us), fmt.Sprintf("%.1fus", row.SingleP99Us),
			fmt.Sprintf("%.3f", row.AllocsPerOp),
			fmt.Sprintf("%.2fM", row.FleetQPS/1e6), fmt.Sprintf("%.1fus", row.FleetP50Us),
			fmt.Sprintf("%.3fs", row.WarmV2RestoreSec), fmt.Sprintf("%.4fs", row.WarmV2OpenSec))
	}
	fmt.Print(tbl.String())
	fmt.Println("\nqps counts pairs answered by the flat batch path (closed loop, GOMAXPROCS")
	fmt.Println("workers); allocs/op is measured on the warm path (the unit test asserts it is")
	fmt.Println("exactly zero). Single-engine numbers bypass the result cache to measure the")
	fmt.Println("raw flat walk; fleet numbers go through fleet.Estimate and so ride the")
	fmt.Println("per-shard cache, the production serving configuration — the two columns are")
	fmt.Println("different paths, not a sharding speedup. 'v2 open' is OpenSnapshotFile —")
	fmt.Println("mmap + checksum validation, estimates served straight from the file;")
	fmt.Println("'v2 restore' reads the arena into one buffer and rebuilds index, overlay and")
	fmt.Println("router around it (the hydration work, minus the mapping).")

	if jsonOut {
		file := serveBenchFile{
			Schema:       serveBenchSchema,
			BuildVersion: version.String(),
			Seed:         seed,
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			Rows:         rows,
		}
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(serveOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d rows)\n", serveOut, len(rows))
	}
	if baselinePath != "" {
		if err := checkServeBaseline(baselinePath, rows); err != nil {
			return err
		}
	}
	return nil
}

// measureWarmStart persists the snapshot and times the two boot paths
// against the same bytes on disk.
func measureWarmStart(snap *oracle.Snapshot, row *serveBenchRow) error {
	dir, err := os.MkdirTemp("", "ringbench-serve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "snap.v2")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := snap.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	if f, err = os.Open(path); err != nil {
		return err
	}
	t0 := time.Now()
	restored, err := oracle.ReadSnapshot(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("v2 restore: %w", err)
	}
	row.WarmV2RestoreSec = time.Since(t0).Seconds()
	restored.Close()

	t0 = time.Now()
	opened, err := oracle.OpenSnapshotFile(path)
	if err != nil {
		return fmt.Errorf("v2 open: %w", err)
	}
	row.WarmV2OpenSec = time.Since(t0).Seconds()
	row.Mapped = opened.Flat != nil && opened.Flat.Mapped()
	// One estimate proves the opened file actually serves.
	_, err = opened.Estimate(0, 1%snap.N())
	opened.Close()
	if err != nil {
		return fmt.Errorf("v2 open serve check: %w", err)
	}
	return nil
}

// batchThroughput runs GOMAXPROCS closed-loop workers, each answering
// full batches from the pool into its own reused result buffer, and
// reports pairs answered per second.
func batchThroughput(d time.Duration, pool []oracle.Pair, run func(pairs []oracle.Pair, out []oracle.EstimateResult)) float64 {
	const batchSize = 256
	workers := runtime.GOMAXPROCS(0)
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]oracle.EstimateResult, batchSize)
			off := (w * 131) % len(pool)
			count := 0
			for time.Now().Before(deadline) {
				lo := off % (len(pool) - batchSize + 1)
				run(pool[lo:lo+batchSize], out)
				off += batchSize
				count += batchSize
			}
			done.Add(int64(count))
		}(w)
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// checkServeBaseline compares this run's single-engine and fleet
// throughput at the largest size both runs measured against the
// checked-in baseline and fails beyond 25% regression. Wall-clock only
// compares cleanly on matching parallelism, so a GOMAXPROCS mismatch
// (baseline machine vs CI runner) widens the gate to catastrophic-only
// (4×) — same policy as the build gate's worker mismatch.
func checkServeBaseline(path string, rows []serveBenchRow) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base serveBenchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	baseByN := make(map[int]serveBenchRow, len(base.Rows))
	for _, r := range base.Rows {
		baseByN[r.N] = r
	}
	gateN := -1
	for _, r := range rows {
		if _, ok := baseByN[r.N]; ok && r.N > gateN {
			gateN = r.N
		}
	}
	if gateN < 0 {
		return fmt.Errorf("baseline: no common gate size between %s and this run", path)
	}
	var run serveBenchRow
	for _, r := range rows {
		if r.N == gateN {
			run = r
		}
	}
	bRow := baseByN[gateN]
	factor := 1.25
	if base.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		factor = 4
		fmt.Printf("\nserve gate: GOMAXPROCS mismatch (run %d vs baseline %d): widening to catastrophic-only (%.0f×)\n",
			runtime.GOMAXPROCS(0), base.GOMAXPROCS, factor)
	}
	fail := func(name string, baseQPS, runQPS float64) error {
		ratio := 0.0
		if runQPS > 0 {
			ratio = baseQPS / runQPS
		}
		fmt.Printf("serve gate: n=%d %s %.2fM q/s vs baseline %.2fM (baseline/run %.2fx, limit %.2fx)\n",
			gateN, name, runQPS/1e6, baseQPS/1e6, ratio, factor)
		if runQPS*factor < baseQPS {
			return fmt.Errorf("%s throughput at n=%d regressed: %.2fM q/s vs the %.2fM baseline (limit %.2fx)",
				name, gateN, runQPS/1e6, baseQPS/1e6, factor)
		}
		return nil
	}
	fmt.Println()
	if err := fail("single-engine", bRow.SingleQPS, run.SingleQPS); err != nil {
		return err
	}
	return fail("fleet", bRow.FleetQPS, run.FleetQPS)
}

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
	"rings/internal/version"
)

// faultBenchFile is the BENCH_fault.json schema: one row per workload
// measuring the replicated fleet's failure-handling pipeline — zero
// client-visible errors while a replica is dark, the restart→resync
// recovery time, and the hedged-read win rate against a slow replica.
type faultBenchFile struct {
	Schema       string          `json:"schema"`
	BuildVersion string          `json:"build_version"`
	Seed         int64           `json:"seed"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	Rows         []faultBenchRow `json:"rows"`
}

const faultBenchSchema = "rings/bench-fault/v1"

// faultBenchRow is one measured instance.
type faultBenchRow struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`

	// Healthy baseline: closed-loop intra-shard estimate throughput
	// with every replica serving.
	HealthyQPS float64 `json:"healthy_qps"`

	// Kill phase: the same load while one shard's primary is dark.
	// ErrorsDuringKill is checked, not just recorded — any nonzero
	// value fails the experiment (the failover contract is "degraded,
	// never wrong, never refused while a replica survives").
	KillWindowSec     float64 `json:"kill_window_sec"`
	QueriesDuringKill int64   `json:"queries_during_kill"`
	ErrorsDuringKill  int64   `json:"errors_during_kill"`
	KillQPS           float64 `json:"kill_qps"`
	Failovers         int64   `json:"failovers"`
	BreakerOpens      int64   `json:"breaker_opens"`

	// Recovery: restart → prober resync → every replica closed and
	// serving the current era.
	RecoverySec float64 `json:"recovery_sec"`
	Resyncs     int64   `json:"resyncs"`

	// Hedge phase (separate fleet, one artificially slow replica,
	// fixed trigger): a hedge fired after the trigger should nearly
	// always beat the slow first attempt.
	Hedges       int64   `json:"hedges"`
	HedgeWins    int64   `json:"hedge_wins"`
	HedgeWinRate float64 `json:"hedge_win_rate"`
}

// slowBackend delays every estimate by a fixed latency — the
// hedged-read test shim plugged in through Config.Transport. It is a
// transport that stalls, and says so: only a Remote replica is hedged.
type slowBackend struct {
	shard.Backend
	delay time.Duration
}

func (b slowBackend) Remote() bool { return true }

func (b slowBackend) Estimate(u, v int) (oracle.EstimateResult, error) {
	time.Sleep(b.delay)
	return b.Backend.Estimate(u, v)
}

// faultLoad runs GOMAXPROCS closed-loop workers over the intra-shard
// pair pool for roughly the window and reports queries and errors.
func faultLoad(f *shard.Fleet, pool []oracle.Pair, window time.Duration) (queries, errs int64) {
	workers := runtime.GOMAXPROCS(0)
	var q, e atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w * 137
			for time.Now().Before(deadline) {
				for j := 0; j < 64; j++ {
					p := pool[i%len(pool)]
					if _, err := f.Estimate(p.U, p.V); err != nil {
						e.Add(1)
					}
					i++
				}
				q.Add(64)
			}
		}(w)
	}
	wg.Wait()
	return q.Load(), e.Load()
}

// intraPool draws same-shard pairs: the estimates that route through
// the replica set (cross-shard answers come from the beacon tier and
// never touch failover).
func intraPool(rng *rand.Rand, n, k, size int) []oracle.Pair {
	pool := make([]oracle.Pair, size)
	for i := range pool {
		u := rng.Intn(n)
		v := rng.Intn((n+k-1-u%k)/k)*k + u%k
		pool[i] = oracle.Pair{U: u, V: v}
	}
	return pool
}

// fastRecovery are the breaker/prober knobs every fault-phase fleet
// runs with: millisecond-scale probe and backoff so the measured
// recovery time reflects the resync pipeline, not default timers.
func fastRecovery(cfg shard.Config) shard.Config {
	cfg.ProbeInterval = 2 * time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerBackoff = 2 * time.Millisecond
	cfg.BreakerMaxBackoff = 20 * time.Millisecond
	return cfg
}

// expFault measures the replicated fleet's failure pipeline (DF1):
// healthy throughput, a kill window that must stay error-free, the
// restart→resync recovery time, and the hedged-read win rate against
// a deliberately slow replica.
func expFault(seed int64, quick bool) error {
	section("DF1 / fault: replica kill, failover and hedged reads on the replicated fleet")
	const k, r = 4, 2
	n := 256
	window := 500 * time.Millisecond
	if quick {
		n = 128
		window = 250 * time.Millisecond
	}

	cfg := oracle.Config{
		Workload: "cube", N: n, Seed: seed,
		Scheme: oracle.SchemeLabels, Backend: benchBackend, Workers: benchWorkers,
		SkipRouting: true, SkipOverlay: true,
	}
	fleet, err := shard.NewFleet(fastRecovery(shard.Config{Oracle: cfg, Shards: k, Replicas: r}))
	if err != nil {
		return err
	}
	defer fleet.Close()

	rng := rand.New(rand.NewSource(seed + 83))
	pool := intraPool(rng, fleet.N(), k, 2048)
	row := faultBenchRow{Workload: fleet.Name(), N: fleet.N(), Shards: k, Replicas: r}

	// Healthy baseline (also warms per-shard caches).
	q, e := faultLoad(fleet, pool, window)
	if e > 0 {
		return fmt.Errorf("fault: %d errors on the healthy fleet", e)
	}
	row.HealthyQPS = float64(q) / window.Seconds()

	// Kill phase: shard 0 loses its primary mid-load. The workers keep
	// hammering every shard; the replica set must absorb the loss —
	// breaker trip, failover to the restored copy — without a single
	// error surfacing.
	before := fleet.Stats()
	done := make(chan struct{})
	go func() {
		defer close(done)
		q, e = faultLoad(fleet, pool, window)
	}()
	time.Sleep(window / 8)
	if err := fleet.KillReplica(0, 0); err != nil {
		return err
	}
	<-done
	row.KillWindowSec = window.Seconds()
	row.QueriesDuringKill = q
	row.ErrorsDuringKill = e
	row.KillQPS = float64(q) / window.Seconds()
	if e > 0 {
		return fmt.Errorf("fault: %d of %d queries failed while one replica of %d was dark", e, q, r)
	}

	// Recovery: restart → prober half-opens → resync → closed+current.
	t0 := time.Now()
	if err := fleet.RestartReplica(0, 0); err != nil {
		return err
	}
	recoverDeadline := t0.Add(10 * time.Second)
	for {
		healthy := true
		for _, st := range fleet.ReplicaStatuses() {
			if st.Down || st.State != "closed" || !st.Current {
				healthy = false
				break
			}
		}
		if healthy {
			break
		}
		if time.Now().After(recoverDeadline) {
			return fmt.Errorf("fault: fleet never recovered: %+v", fleet.ReplicaStatuses())
		}
		time.Sleep(time.Millisecond)
	}
	row.RecoverySec = time.Since(t0).Seconds()
	after := fleet.Stats()
	row.Failovers = after.Failovers - before.Failovers
	row.BreakerOpens = after.BreakerOpens - before.BreakerOpens
	row.Resyncs = after.Resyncs - before.Resyncs

	// Hedge phase: a second fleet whose replica 0 answers estimates
	// 2ms late behind a fixed 200µs hedge trigger. Whenever the rotor
	// picks the slow replica first, the hedge fires and the fast copy
	// should win the race.
	hedged, err := shard.NewFleet(fastRecovery(shard.Config{
		Oracle:     cfg,
		Shards:     k,
		Replicas:   r,
		HedgeAfter: 200 * time.Microsecond,
		Transport: func(s, rep int, b shard.Backend) shard.Backend {
			if rep == 0 {
				return slowBackend{Backend: b, delay: 2 * time.Millisecond}
			}
			return b
		},
	}))
	if err != nil {
		return err
	}
	defer hedged.Close()
	if q, e = faultLoad(hedged, pool, window); e > 0 {
		return fmt.Errorf("fault: %d errors during the hedge phase", e)
	}
	hs := hedged.Stats()
	row.Hedges, row.HedgeWins = hs.Hedges, hs.HedgeWins
	if row.Hedges == 0 {
		return fmt.Errorf("fault: the 2ms-slow replica never triggered a hedge (%d queries)", q)
	}
	row.HedgeWinRate = float64(row.HedgeWins) / float64(row.Hedges)

	fmt.Printf("workload %s n=%d K=%d R=%d\n", row.Workload, row.N, row.Shards, row.Replicas)
	fmt.Printf("  healthy: %.2fM q/s; kill window %.0fms: %d queries, %d errors (%.2fM q/s, %d failovers)\n",
		row.HealthyQPS/1e6, row.KillWindowSec*1e3, row.QueriesDuringKill, row.ErrorsDuringKill,
		row.KillQPS/1e6, row.Failovers)
	fmt.Printf("  recovery: %.1fms (breaker opens %d, resyncs %d)\n",
		row.RecoverySec*1e3, row.BreakerOpens, row.Resyncs)
	fmt.Printf("  hedging vs a 2ms-slow replica: %d hedges, %d wins (%.0f%% win rate)\n",
		row.Hedges, row.HedgeWins, row.HedgeWinRate*100)
	fmt.Println("\nZero errors during the kill window is asserted, not just reported: a run")
	fmt.Println("with any client-visible failure while a replica survives exits non-zero.")

	if jsonOut {
		file := faultBenchFile{
			Schema:       faultBenchSchema,
			BuildVersion: version.String(),
			Seed:         seed,
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			Rows:         []faultBenchRow{row},
		}
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(faultOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (1 row)\n", faultOut)
	}
	return nil
}

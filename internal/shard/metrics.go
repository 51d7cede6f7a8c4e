package shard

import (
	"fmt"
	"math"

	"rings/internal/telemetry"
)

// fleetMetrics holds the fleet-level telemetry handles (per-shard
// engine and churn metrics live in each shard's own registries; the
// server stitches all of them into one /metrics page).
type fleetMetrics struct {
	reg *telemetry.Registry

	intra  *telemetry.Counter
	cross  *telemetry.Counter
	joins  *telemetry.Counter
	leaves *telemetry.Counter
	// crossUnbounded counts cross-shard answers whose upper bound was
	// +Inf (a beacon vector hole — should be zero in a healthy fleet).
	crossUnbounded *telemetry.Counter
	// beaconWidth is the certificate width upper/lower of each
	// cross-shard sandwich: the live, certified side of ringperf's
	// shard.cross_stretch_mean. Buckets 2^0 .. 2^8 (width 1 = exact,
	// 256 = pathological).
	beaconWidth *telemetry.Histogram
	nodes       *telemetry.Gauge
	shards      *telemetry.Gauge
	beacons     *telemetry.Gauge

	// Robustness series (PR 8): replica hedging, failover, breaker and
	// epoch-fencing instrumentation.
	hedges       *telemetry.Counter
	hedgeWins    *telemetry.Counter
	failovers    *telemetry.Counter
	breakerOpens *telemetry.Counter
	resyncs      *telemetry.Counter
	// resyncUs is the catch-up resync latency in microseconds (buckets
	// 2^0 .. 2^24 ≈ 16.7s).
	resyncUs     *telemetry.Histogram
	epoch        *telemetry.Gauge
	epochRetries *telemetry.Counter
	replicas     *telemetry.Gauge
	replicasDown *telemetry.Gauge
	// breakerState exposes each replica's breaker as a gauge
	// (0 closed, 1 open, 2 half-open), labeled s<shard>r<replica>.
	breakerState *telemetry.GaugeFamily
}

// replicaLabel names one replica's breaker-state gauge child.
func replicaLabel(s, r int) string { return fmt.Sprintf("s%dr%d", s, r) }

func newFleetMetrics(k, replicas int) *fleetMetrics {
	reg := telemetry.NewRegistry()
	m := &fleetMetrics{reg: reg}
	est := reg.CounterFamily("rings_fleet_estimates_total",
		"Fleet estimates answered, by path (intra = owning engine, cross = beacon sandwich).",
		"path", "intra", "cross")
	m.intra = est.With("intra")
	m.cross = est.With("cross")
	churnOps := reg.CounterFamily("rings_fleet_churn_ops_total",
		"Committed churn operations routed through the fleet, by kind.",
		"op", "join", "leave")
	m.joins = churnOps.With("join")
	m.leaves = churnOps.With("leave")
	m.crossUnbounded = reg.Counter("rings_fleet_cross_unbounded_total",
		"Cross-shard answers with an infinite upper bound (beacon vector hole).")
	m.beaconWidth = reg.Histogram("rings_fleet_beacon_width",
		"Certificate width (upper/lower) of cross-shard beacon sandwiches.", 0, 8)
	m.nodes = reg.Gauge("rings_fleet_nodes",
		"Active nodes across all shards.")
	m.shards = reg.Gauge("rings_fleet_shards",
		"Shard count.")
	m.beacons = reg.Gauge("rings_fleet_beacons",
		"Landmark count of the cross-shard beacon tier.")
	m.hedges = reg.Counter("rings_fleet_hedges_total",
		"Hedged reads launched after the latency-percentile trigger.")
	m.hedgeWins = reg.Counter("rings_fleet_hedge_wins_total",
		"Hedged reads that answered before the primary attempt.")
	m.failovers = reg.Counter("rings_fleet_failovers_total",
		"Queries moved to another replica after a transport failure.")
	m.breakerOpens = reg.Counter("rings_fleet_breaker_opens_total",
		"Replica circuit breakers tripped open.")
	m.resyncs = reg.Counter("rings_fleet_resyncs_total",
		"Replica catch-up resyncs completed (snapshot re-shipped and breaker closed).")
	m.resyncUs = reg.Histogram("rings_fleet_resync_us",
		"Catch-up resync latency in microseconds (probe success to breaker close).", 0, 24)
	m.epoch = reg.Gauge("rings_fleet_epoch",
		"Current partition-map epoch (bumps on every replica roster change).")
	m.epochRetries = reg.Counter("rings_fleet_epoch_retries_total",
		"Operations re-run because the epoch changed while they were in flight.")
	m.replicas = reg.Gauge("rings_fleet_replicas",
		"Configured serving replicas per shard.")
	m.replicasDown = reg.Gauge("rings_fleet_replicas_down",
		"Replicas currently administratively down or breaker-open.")
	labels := make([]string, 0, k*replicas)
	for s := 0; s < k; s++ {
		for r := 0; r < replicas; r++ {
			labels = append(labels, replicaLabel(s, r))
		}
	}
	m.breakerState = reg.GaugeFamily("rings_fleet_breaker_state",
		"Per-replica breaker state (0 closed, 1 open, 2 half-open).",
		"replica", labels...)
	return m
}

// observeCross accounts one cross-shard answer: counter, unbounded
// check, and the sandwich-width histogram. Allocation-free.
func (f *Fleet) observeCross(lower, upper float64) {
	f.metrics.cross.Inc()
	if math.IsInf(upper, 1) {
		f.metrics.crossUnbounded.Inc()
		return
	}
	if lower > 0 {
		f.metrics.beaconWidth.Observe(upper / lower)
	} else if upper == 0 {
		f.metrics.beaconWidth.Observe(1) // exact zero-distance sandwich
	}
}

// Metrics returns the fleet-level telemetry registry. Per-shard engine
// registries come from ShardEngine(s).Metrics() and churn registries
// from ShardChurnMetrics(s).
func (f *Fleet) Metrics() *telemetry.Registry { return f.metrics.reg }

// ShardChurnMetrics returns one shard mutator's telemetry registry, or
// nil when the fleet was built without churn.
func (f *Fleet) ShardChurnMetrics(s int) *telemetry.Registry {
	unit := f.shards[s]
	if unit.mut == nil {
		return nil
	}
	return unit.mut.Metrics()
}

// TrueDist reports the exact base-space distance between two global
// ids — the ground truth the online stretch auditor audits estimates
// against. Works for any pair in the universe, active or dormant (the
// base space is the full capacity-sized workload).
func (f *Fleet) TrueDist(u, v int) (float64, error) {
	if err := f.checkGlobal(u); err != nil {
		return 0, err
	}
	if err := f.checkGlobal(v); err != nil {
		return 0, err
	}
	return f.base.Dist(u, v), nil
}

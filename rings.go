// Package rings is a Go implementation of Aleksandrs Slivkins'
// "Distance Estimation and Object Location via Rings of Neighbors"
// (PODC 2005; full version 2006).
//
// The paper attacks four node-labeling problems on metrics of low
// doubling dimension with one sparse distributed data structure — rings
// of neighbors — and this module implements all four results plus every
// substrate they stand on:
//
//   - Compact (1+δ)-stretch routing schemes on doubling graphs and
//     metrics (Theorems 2.1, 4.1 and the two-mode Theorem 4.2/B.1),
//   - (0,δ)-triangulation: distance bounds D− <= d <= D+ with a quality
//     certificate for every node pair (Theorem 3.2),
//   - (1+δ)-approximate distance labeling without global node
//     identifiers, optimal for huge aspect ratios (Theorem 3.4),
//   - searchable small worlds on doubling metrics, including the first
//     non-greedy strongly local routing rule (Theorems 5.2(a,b), 5.5).
//
// This facade re-exports the main entry points; the implementation lives
// under internal/ (one package per substrate — see DESIGN.md for the map
// from paper sections to packages, and EXPERIMENTS.md for the measured
// reproduction of every table and figure).
package rings

import (
	"io"

	"rings/internal/churn"
	"rings/internal/distlabel"
	"rings/internal/graph"
	"rings/internal/metric"
	"rings/internal/nnsearch"
	"rings/internal/oracle"
	"rings/internal/routing"
	"rings/internal/shard"
	"rings/internal/smallworld"
	"rings/internal/triangulation"
)

// Space is a finite metric space on nodes 0..N-1 (see metric.Space).
type Space = metric.Space

// Index is the ball-query interface every construction starts from; any
// backend (eager or memory-bounded lazy, see IndexOptions) satisfies it.
type Index = metric.BallIndex

// IndexOptions selects and tunes a ball-index backend.
type IndexOptions = metric.Options

// Backend selections for IndexOptions, re-exported so module-external
// callers (who cannot reach internal/metric) can pick one.
const (
	// EagerBackend precomputes all sorted rows with a parallel worker
	// pool: O(n^2) memory, O(log n) queries.
	EagerBackend = metric.Eager
	// LazyBackend keeps truncated per-node prefixes extended on demand:
	// memory proportional to what the queries touch, exact answers.
	LazyBackend = metric.Lazy
)

// NewIndex builds the default (eager, parallel-build) index.
func NewIndex(space Space) Index { return metric.NewIndex(space) }

// NewIndexWithOptions builds an index with an explicit backend selection:
// EagerBackend precomputes all rows in parallel, LazyBackend keeps
// memory proportional to the queries actually asked.
func NewIndexWithOptions(space Space, opts IndexOptions) Index { return metric.New(space, opts) }

// Graph is a weighted directed graph with enumerated out-edges.
type Graph = graph.Graph

// Triangulation is a Theorem 3.2 (0,δ)-triangulation.
type Triangulation = triangulation.Triangulation

// NewTriangulation builds a (0,delta)-triangulation: for every pair,
// Estimate returns bounds with D+/D− <= 1+delta.
func NewTriangulation(idx Index, delta float64) (*Triangulation, error) {
	return triangulation.New(idx, delta)
}

// DistanceLabels is a Theorem 3.4 labeling scheme: (1+δ)-approximate
// estimates from labels alone, no global identifiers.
type DistanceLabels = distlabel.Scheme

// NewDistanceLabels builds the Theorem 3.4 scheme.
func NewDistanceLabels(idx Index, delta float64) (*DistanceLabels, error) {
	return distlabel.New(idx, delta)
}

// EstimateFromLabels bounds the distance between the two labeled nodes
// using only the labels.
func EstimateFromLabels(a, b *distlabel.Label) (lower, upper float64, ok bool) {
	return distlabel.Estimate(a, b)
}

// RoutingScheme is a compact routing scheme (labels, tables, local
// forwarding).
type RoutingScheme = routing.Scheme

// NewRouter builds the Theorem 2.1 (1+delta)-stretch scheme for a
// connected weighted graph.
func NewRouter(g *Graph, delta float64) (RoutingScheme, error) {
	return routing.NewThm21(g, delta)
}

// NewMetricRouter builds the Section 4.1 overlay variant on a metric.
func NewMetricRouter(idx Index, delta float64) (RoutingScheme, error) {
	return routing.NewThm21Metric(idx, delta)
}

// Route simulates one packet under a scheme.
func Route(s RoutingScheme, source, target, maxHops int) (routing.RouteResult, error) {
	return routing.Route(s, source, target, maxHops)
}

// SmallWorld is a sampled small-world model with its strongly local
// routing rule.
type SmallWorld = smallworld.Model

// NewSmallWorld samples the Theorem 5.2(a) greedy model.
func NewSmallWorld(idx Index, seed int64) (SmallWorld, error) {
	return smallworld.NewThm52a(idx, smallworld.DefaultParams(seed))
}

// NewSmallWorldCompact samples the Theorem 5.2(b) model (sqrt(log ∆)
// out-degree scaling, non-greedy rule (**)).
func NewSmallWorldCompact(idx Index, seed int64) (SmallWorld, error) {
	return smallworld.NewThm52b(idx, smallworld.DefaultParams(seed))
}

// LocateObject routes a small-world query and reports the hop count.
func LocateObject(m SmallWorld, source, target, maxHops int) (smallworld.QueryResult, error) {
	return smallworld.Query(m, source, target, maxHops)
}

// NearestNeighborOverlay is a Meridian-style ring overlay over a member
// subset, answering nearest-member and multi-range queries (the Section 6
// application of rings of neighbors).
type NearestNeighborOverlay = nnsearch.Overlay

// NewNearestNeighborOverlay builds the overlay over the given member
// subset with Meridian's default ring constants.
func NewNearestNeighborOverlay(idx Index, members []int, seed int64) (*NearestNeighborOverlay, error) {
	return nnsearch.New(idx, members, nnsearch.DefaultConfig(seed))
}

// OracleConfig describes one serving snapshot: workload, estimator
// scheme (labels/beacons), profile and artifact toggles.
type OracleConfig = oracle.Config

// OracleSnapshot is an immutable bundle of serving artifacts (labels,
// beacons, ring overlay, router) over one workload.
type OracleSnapshot = oracle.Snapshot

// OracleEngine is the concurrency-safe query layer: lock-free snapshot
// reads, zero-downtime Swap, a sharded estimate cache and per-endpoint
// latency accounting. cmd/ringsrv serves it over HTTP; embedders can run
// it in-process.
type OracleEngine = oracle.Engine

// OracleEngineOptions tunes the engine's cache and latency sampling.
type OracleEngineOptions = oracle.EngineOptions

// OracleBuildStats is the per-phase build breakdown attached to every
// snapshot (index, nets, packings, rings, Z/T-sets, label fill, overlay,
// router).
type OracleBuildStats = oracle.BuildStats

// BuildOracleSnapshot constructs every artifact the config asks for
// (the expensive call Swap exists to hide).
func BuildOracleSnapshot(cfg OracleConfig) (*OracleSnapshot, error) {
	return oracle.BuildSnapshot(cfg)
}

// NewOracleEngine creates an engine serving the given snapshot.
func NewOracleEngine(snap *OracleSnapshot, opts OracleEngineOptions) *OracleEngine {
	return oracle.NewEngine(snap, opts)
}

// ReadOracleSnapshot restores a snapshot persisted with
// OracleSnapshot.WriteTo: the workload view (including a churned node
// subset) regenerates from the header, derived artifacts rebuild
// deterministically, and estimates are served straight from the
// persisted arena bytes — the warm start skips the dominant build phase.
func ReadOracleSnapshot(r io.Reader) (*OracleSnapshot, error) {
	return oracle.ReadSnapshot(r)
}

// ChurnMutator is the incremental membership engine: Join/Leave by
// localized repair over a mutable substrate, each batch committed as a
// delta snapshot that structurally shares everything unchanged with its
// predecessor and swaps into an OracleEngine with zero downtime. After
// any batch the delta snapshot is byte-identical (wire labels and
// estimate/nearest/route answers) to a from-scratch build on the
// surviving node set.
type ChurnMutator = churn.Mutator

// ChurnConfig describes a churn engine: the oracle build recipe plus
// the universe capacity and the minimum node floor.
type ChurnConfig = churn.Config

// ChurnOp is one membership mutation against a stable base id.
type ChurnOp = churn.Op

// ChurnStats is the engine's cumulative repair report.
type ChurnStats = churn.Stats

// Churn op kinds.
const (
	// ChurnJoin activates a dormant base node.
	ChurnJoin = churn.Join
	// ChurnLeave retires an active base node.
	ChurnLeave = churn.Leave
)

// NewChurnMutator generates the capacity-sized base workload and
// performs the initial full build; later ApplyChurn batches repair
// incrementally.
func NewChurnMutator(cfg ChurnConfig) (*ChurnMutator, error) {
	return churn.NewMutator(cfg)
}

// ApplyChurn applies one mutation batch and returns the committed delta
// snapshot (hand it to OracleEngine.Swap to publish).
func ApplyChurn(m *ChurnMutator, ops ...ChurnOp) (*OracleSnapshot, error) {
	return m.Apply(ops...)
}

// ShardFleet is the partitioned serving layer: one global node
// universe split round-robin across K shards, each with its own
// OracleSnapshot/OracleEngine over its subspace, glued by a shared
// beacon tier. Intra-shard estimate/nearest/route queries delegate to
// the owning engine (answers byte-identical to a standalone engine
// over that subspace); cross-shard estimates are certified
// triangle-inequality sandwich bounds from the beacon tier; under
// churn each join/leave repairs only the owning shard. cmd/ringsrv
// serves a fleet over HTTP with -shards K.
type ShardFleet = shard.Fleet

// ShardFleetConfig describes a fleet: the per-shard build recipe, the
// shard count, the beacon tier size and the churn knobs.
type ShardFleetConfig = shard.Config

// ShardFleetStats is the fleet-level aggregation plus per-shard
// engine (and churn) reports.
type ShardFleetStats = shard.FleetStats

// ShardChurnCommit reports one shard's committed mutation batch when
// churn routes through the fleet.
type ShardChurnCommit = shard.ChurnCommit

// ErrCrossShard marks a route whose endpoints live in different
// shards (the beacon tier certifies distances, not paths).
var ErrCrossShard = shard.ErrCrossShard

// NewShardFleet generates the global workload, partitions it across
// cfg.Shards shards, and builds every shard's snapshot concurrently.
func NewShardFleet(cfg ShardFleetConfig) (*ShardFleet, error) {
	return shard.NewFleet(cfg)
}

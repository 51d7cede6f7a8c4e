package oracle

import (
	"rings/internal/telemetry"
)

// Cache event names for the rings_engine_cache_events_total family.
const (
	cacheEventHit   = "hit"
	cacheEventMiss  = "miss"
	cacheEventEvict = "evict"
)

// endpointStats is one endpoint's telemetry handles, captured at
// construction so observe performs no registry lookups.
type endpointStats struct {
	requests  *telemetry.Counter
	errors    *telemetry.Counter
	latencyUs *telemetry.Histogram
}

// engineMetrics holds the engine's preallocated telemetry handles.
// Every handle is captured at construction so the hot path performs no
// registry or map lookups — an increment is exactly one atomic add.
// These are the engine's only counters: Engine.Stats is computed from
// them at read time. They are cumulative for the life of the engine —
// the cache event counters keep counting across snapshot eras
// (Prometheus counters must be monotone), and Stats reports a cache's
// era as the difference from the values captured when it was created.
type engineMetrics struct {
	reg *telemetry.Registry

	endpoints map[string]*endpointStats

	batchPairs *telemetry.Counter

	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	cacheEvicts *telemetry.Counter

	version    *telemetry.Gauge
	swaps      *telemetry.Counter
	pinRetries *telemetry.Counter

	// Where the served arena's bytes are (set at every swap).
	arenaSections *telemetry.GaugeFamily
	arenaKeys     *telemetry.Gauge
	arenaLists    *telemetry.Gauge
}

// latency histograms span 2^0 .. 2^23 microseconds (~8.4 s) — wide
// enough for a cold rebuild swap, fine enough near 1 us for warm hits.
const (
	latMinExp = 0
	latMaxExp = 23
)

func newEngineMetrics() *engineMetrics {
	reg := telemetry.NewRegistry()
	m := &engineMetrics{
		reg:       reg,
		endpoints: make(map[string]*endpointStats, len(endpointNames)),
	}
	reqs := reg.CounterFamily("rings_engine_requests_total",
		"Requests served, by endpoint.", "endpoint", endpointNames...)
	errs := reg.CounterFamily("rings_engine_errors_total",
		"Requests that returned an error, by endpoint.", "endpoint", endpointNames...)
	lat := reg.HistogramFamily("rings_engine_latency_us",
		"Request latency in microseconds, by endpoint.", latMinExp, latMaxExp,
		"endpoint", endpointNames...)
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointStats{
			requests:  reqs.With(name),
			errors:    errs.With(name),
			latencyUs: lat.With(name),
		}
	}
	m.batchPairs = reg.Counter("rings_engine_batch_pairs_total",
		"Pairs answered by the batch endpoints (each batch request counts len(pairs) here).")
	cache := reg.CounterFamily("rings_engine_cache_events_total",
		"Estimate cache events, cumulative across snapshot eras.", "event",
		cacheEventHit, cacheEventMiss, cacheEventEvict)
	m.cacheHits = cache.With(cacheEventHit)
	m.cacheMisses = cache.With(cacheEventMiss)
	m.cacheEvicts = cache.With(cacheEventEvict)
	m.version = reg.Gauge("rings_engine_snapshot_version",
		"Version of the currently served snapshot.")
	m.swaps = reg.Counter("rings_engine_swaps_total",
		"Snapshot swaps installed.")
	m.pinRetries = reg.Counter("rings_engine_arena_pin_retries_total",
		"Queries that lost the arena pin race and reloaded the engine state.")
	m.arenaSections = reg.GaugeFamily("rings_arena_section_bytes",
		"Bytes of the served flat arena, by section.",
		"section", sectionNames...)
	m.arenaKeys = reg.Gauge("rings_arena_keys",
		"Translation-map keys of the served arena: set bits of its key bitmaps (each key names one entry list).")
	m.arenaLists = reg.Gauge("rings_arena_distinct_lists",
		"Entry lists the served arena stores; keys minus this many share a list with another key of their group.")
	return m
}

// setArena publishes the byte accounting of the arena being swapped in
// (a cold path: the family lookups are not worth captured handles).
func (m *engineMetrics) setArena(f *FlatSnap) {
	for _, name := range sectionNames {
		m.arenaSections.With(name).Set(0)
	}
	for _, s := range f.sections {
		m.arenaSections.With(s.Name).Set(float64(s.bytes()))
	}
	m.arenaKeys.Set(float64(f.keys))
	m.arenaLists.Set(float64(f.lists))
}

// Metrics returns the engine's private telemetry registry for exposition.
// Each engine owns its own registry so several engines (a fleet's
// shards, parallel tests) never collide on metric names.
func (e *Engine) Metrics() *telemetry.Registry { return e.metrics.reg }

// Open modes for the rings_snapshot_open_us family.
const (
	openModeMmap    = "mmap"    // OpenSnapshotFile, zero-copy mapping
	openModeRead    = "read"    // OpenSnapshotFile, bulk-read fallback
	openModeRestore = "restore" // HydrateOver: artifacts rebuilt around an arena
)

// Snapshot persistence metrics live in telemetry.Default: persist and
// open are package functions that fire before any engine exists, so
// there is no owning object to hang a registry on.
var (
	mPersistUs = telemetry.Default.Histogram("rings_snapshot_persist_us",
		"Snapshot serialization (WriteTo) latency in microseconds.", latMinExp, latMaxExp)
	mPersistTotal = telemetry.Default.Counter("rings_snapshot_persist_total",
		"Snapshot serializations attempted.")
	mPersistErrors = telemetry.Default.Counter("rings_snapshot_persist_errors_total",
		"Snapshot serializations that failed.")
	mOpenUs = telemetry.Default.HistogramFamily("rings_snapshot_open_us",
		"Snapshot open latency in microseconds, by mode (mmap and read are the "+
			"O(header) warm-start paths; restore is the full artifact rebuild).",
		latMinExp, latMaxExp, "mode", openModeMmap, openModeRead, openModeRestore)
	mOpenTotal = telemetry.Default.CounterFamily("rings_snapshot_open_total",
		"Snapshot opens completed, by mode.", "mode", openModeMmap, openModeRead, openModeRestore)
	mOpenErrors = telemetry.Default.Counter("rings_snapshot_open_errors_total",
		"Snapshot opens or restores that failed.")
)

// Router build metrics live in telemetry.Default for the same reason: a
// snapshot builds its router before any engine owns it, or long after.
var (
	mRouterBuilds = telemetry.Default.CounterFamily("rings_oracle_router_builds_total",
		"Theorem 2.1 routers built, by who paid: a commit inheriting its "+
			"predecessor's demand, or the first /route on a snapshot.",
		"cause", routerCauseCommit, routerCauseRequest)
	mRouterBuildUs = telemetry.Default.Histogram("rings_oracle_router_build_us",
		"Router build latency in microseconds (what a request-caused build makes its /route wait).",
		latMinExp, latMaxExp)
)

package oracle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/stats"
)

// EngineOptions tunes the serving layer (not the artifacts — those are
// Config's job).
type EngineOptions struct {
	// CacheShards is the shard count of the estimate cache (rounded up
	// to a power of two; default 16).
	CacheShards int
	// CacheCapacity is the per-shard entry cap. 0 applies the default
	// (4096 entries per shard); negative disables caching.
	CacheCapacity int
}

func (o EngineOptions) withDefaults() EngineOptions {
	if o.CacheShards == 0 {
		o.CacheShards = 16
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 4096
	}
	return o
}

// Endpoint names used by Engine.Stats.
const (
	EndpointEstimate = "estimate"
	EndpointBatch    = "batch"
	EndpointNearest  = "nearest"
	EndpointRoute    = "route"
	EndpointSwap     = "swap"
)

var endpointNames = []string{
	EndpointEstimate, EndpointBatch, EndpointNearest, EndpointRoute, EndpointSwap,
}

// engineState pairs a snapshot with the cache filled from it. Queries
// load the pair through one atomic read, so a request never mixes one
// snapshot's artifacts with another's cache.
type engineState struct {
	snap  *Snapshot
	cache *shardedCache
}

// Engine is the concurrency-safe query layer over a current Snapshot.
// All query methods are lock-free on the snapshot path (one atomic
// pointer read); the only lock on the hot path is the cache shard's,
// scoped far narrower than a query. Every event is counted once, in the
// engine's telemetry registry; Stats is a view of it.
type Engine struct {
	opts     EngineOptions
	state    atomic.Pointer[engineState]
	versions atomic.Int64
	swapMu   sync.Mutex
	started  time.Time
	metrics  *engineMetrics
}

// NewEngine creates an engine serving the given snapshot (installed as
// version 1).
func NewEngine(snap *Snapshot, opts EngineOptions) *Engine {
	e := &Engine{
		opts:    opts.withDefaults(),
		started: time.Now(),
		metrics: newEngineMetrics(),
	}
	e.Swap(snap)
	return e
}

// Swap atomically installs a new snapshot (and a fresh cache for it) and
// returns the previous one. Queries already in flight finish against the
// old snapshot; no query ever observes a half-installed state. The
// returned snapshot is safe to keep using — it is immutable — or to drop
// for garbage collection.
//
// The engine serves estimates from snap.Flat alone, which every built,
// assembled, opened or restored snapshot carries. Swap assigns
// snap.Version (monotonically increasing from 1), so a
// given snapshot may be installed at most once, in one engine — a
// second install would rewrite Version while readers of the first may
// still be loading it.
func (e *Engine) Swap(snap *Snapshot) *Snapshot {
	start := time.Now()
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	// The version write is safe: snap is unpublished until the Store
	// below, which is the release barrier readers synchronize with.
	snap.Version = e.versions.Add(1)
	old := e.state.Swap(&engineState{
		snap:  snap,
		cache: newCache(e.opts.CacheShards, e.opts.CacheCapacity, e.metrics),
	})
	e.metrics.swaps.Inc()
	e.metrics.version.Set(float64(snap.Version))
	e.metrics.setArena(snap.Flat)
	e.observe(EndpointSwap, start, nil)
	if old == nil {
		return nil
	}
	return old.snap
}

// Rebuild builds a snapshot from cfg in its served form (BuildServed)
// and swaps it in, returning the new snapshot. The build runs without
// holding any engine lock, so queries keep flowing against the current
// snapshot for its whole duration — this is the zero-downtime rebuild
// path cmd/ringsrv's /snapshot endpoint triggers. The replaced snapshot is Closed: a warm-started
// one gives its mapping up once its in-flight readers drain.
func (e *Engine) Rebuild(cfg Config) (*Snapshot, error) {
	snap, err := BuildServed(cfg)
	if err != nil {
		return nil, err
	}
	e.Swap(snap).Close()
	return snap, nil
}

// Snapshot returns the currently served snapshot.
func (e *Engine) Snapshot() *Snapshot { return e.state.Load().snap }

//ringvet:hotpath
func (e *Engine) observe(endpoint string, start time.Time, err error) {
	st := e.metrics.endpoints[endpoint]
	st.requests.Inc()
	if err != nil {
		st.errors.Inc()
	}
	st.latencyUs.Observe(float64(time.Since(start)) / float64(time.Microsecond))
}

// pinAttempts bounds the reload loop around arena pinning. A pin only
// fails when the loaded snapshot's mmap arena was closed after being
// swapped out, in which case reloading the state observes the newer
// snapshot; a handful of retries covers any realistic swap storm.
const pinAttempts = 8

// errArenaClosed reports a query that kept losing the pin race — only
// possible when a caller Closes the snapshot an engine still serves,
// which violates the Close contract.
var errArenaClosed = errors.New("oracle: snapshot arena closed while serving (Close before swap-out?)")

// flatEstimate answers one pair from the snapshot's flat arenas. The
// second return is false when the arena could not be pinned (closed
// after swap-out) and the caller must reload the engine state.
//
//ringvet:hotpath
func flatEstimate(snap *Snapshot, u, v int) (EstimateResult, error, bool) {
	f := snap.Flat
	if err := snap.checkNode("estimate", u); err != nil {
		return EstimateResult{}, err, true
	}
	if err := snap.checkNode("estimate", v); err != nil {
		return EstimateResult{}, err, true
	}
	if !f.pin() {
		return EstimateResult{}, nil, false
	}
	res := EstimateResult{U: u, V: v, Version: snap.Version}
	res.Lower, res.Upper, res.OK = f.estimatePair(u, v)
	f.unpin()
	return res, nil, true
}

// estimateOn answers one pair against a fixed state, consulting the
// state's cache; misses are answered from the flat arenas.
func estimateOn(st *engineState, u, v int) (EstimateResult, error, bool) {
	if res, ok := st.cache.get(u, v); ok {
		res.Cached = true
		return res, nil, true
	}
	res, err, pinned := flatEstimate(st.snap, u, v)
	if err != nil || !pinned {
		return EstimateResult{}, err, pinned
	}
	st.cache.put(u, v, res)
	return res, nil, true
}

// Estimate answers one distance estimate from the current snapshot,
// consulting the sharded cache. Modulo the Cached flag, the answer is
// byte-identical to Snapshot.Estimate on the snapshot whose version it
// reports (the flat arenas fold the exact same arithmetic).
func (e *Engine) Estimate(u, v int) (EstimateResult, error) {
	start := time.Now()
	var (
		res EstimateResult
		err error
	)
	for attempt := 0; ; attempt++ {
		st := e.state.Load()
		var ok bool
		res, err, ok = estimateOn(st, u, v)
		if ok {
			break
		}
		e.metrics.pinRetries.Inc()
		if attempt >= pinAttempts {
			err = errArenaClosed
			break
		}
	}
	e.observe(EndpointEstimate, start, err)
	return res, err
}

// Pair is one (u, v) query of a batch.
type Pair struct {
	U int `json:"u"`
	V int `json:"v"`
}

// EstimateBatch answers many pairs against one consistent snapshot: the
// state is loaded once, so a concurrent Swap cannot split a batch across
// two snapshots. Invalid pairs fail the whole batch.
func (e *Engine) EstimateBatch(pairs []Pair) ([]EstimateResult, error) {
	return e.EstimateBatchInto(pairs, make([]EstimateResult, len(pairs)))
}

// EstimateBatchInto is EstimateBatch with a caller-supplied result
// buffer (len(out) must equal len(pairs)): the zero-allocation batch
// path. The whole batch reads the flat arenas directly — one state
// load, one arena pin, no cache traffic — so a warm batch performs no
// heap allocation at all; answers remain bit-identical to the single
// query path on the same snapshot version.
//
//ringvet:hotpath
func (e *Engine) EstimateBatchInto(pairs []Pair, out []EstimateResult) ([]EstimateResult, error) {
	start := time.Now()
	if len(out) != len(pairs) {
		//ringvet:ignore noalloc: cold caller-error path, taken once per misuse, never in steady state
		err := fmt.Errorf("oracle: batch buffer holds %d results for %d pairs", len(out), len(pairs))
		e.observe(EndpointBatch, start, err)
		return nil, err
	}
	var err error
	for attempt := 0; ; attempt++ {
		st := e.state.Load()
		var ok bool
		err, ok = batchOn(st, pairs, out)
		if ok {
			break
		}
		e.metrics.pinRetries.Inc()
		if attempt >= pinAttempts {
			err = errArenaClosed
			break
		}
	}
	e.observe(EndpointBatch, start, err)
	if err != nil {
		return nil, err
	}
	e.metrics.batchPairs.Add(int64(len(pairs)))
	return out, nil
}

// batchOn answers a whole batch against one state. The arena is pinned
// once around the loop (the S6 lifetime guard: a concurrent Swap+Close
// cannot unmap it mid-batch).
//
//ringvet:hotpath
func batchOn(st *engineState, pairs []Pair, out []EstimateResult) (error, bool) {
	snap := st.snap
	f := snap.Flat
	if !f.pin() {
		return nil, false
	}
	defer f.unpin()
	n := snap.N()
	for i, p := range pairs {
		if p.U < 0 || p.U >= n || p.V < 0 || p.V >= n {
			u := p.U
			if u >= 0 && u < n {
				u = p.V
			}
			//ringvet:ignore noalloc: cold validation path, taken once per out-of-range pair and aborts the batch
			return fmt.Errorf("pair %d: oracle: estimate node %d out of range [0, %d): %w", i, u, n, ErrNodeRange), true
		}
		r := &out[i]
		r.U, r.V, r.Version, r.Cached = p.U, p.V, snap.Version, false
		r.Lower, r.Upper, r.OK = f.estimatePair(p.U, p.V)
	}
	return nil, true
}

// Nearest answers one nearest-member query from the current snapshot.
func (e *Engine) Nearest(target int) (NearestResult, error) {
	start := time.Now()
	st := e.state.Load()
	res, err := st.snap.Nearest(target)
	e.observe(EndpointNearest, start, err)
	return res, err
}

// Route simulates one packet route on the current snapshot.
func (e *Engine) Route(src, dst int) (RouteResult, error) {
	start := time.Now()
	st := e.state.Load()
	res, err := st.snap.Route(src, dst)
	e.observe(EndpointRoute, start, err)
	return res, err
}

// EndpointStats is one endpoint's counters and latency summary
// (microseconds, derived from the rings_engine_latency_us histogram:
// percentiles resolve to one log2 bucket).
type EndpointStats struct {
	Count     int64         `json:"count"`
	Errors    int64         `json:"errors"`
	LatencyUs stats.Summary `json:"latency_us"`
}

// EngineStats is the self-report returned by Stats.
type EngineStats struct {
	Version   int64                    `json:"version"`
	Swaps     int64                    `json:"swaps"`
	UptimeSec float64                  `json:"uptime_sec"`
	Build     BuildStats               `json:"build"`
	Cache     CacheStats               `json:"cache"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// Stats reports the engine's counters, read from its telemetry registry:
// current snapshot version, swap count, the current cache's
// hit/miss/eviction counters (the cache is per snapshot era — they
// restart at Swap by design), and per-endpoint call counts with latency
// summaries.
func (e *Engine) Stats() EngineStats {
	st := e.state.Load()
	out := EngineStats{
		Version:   st.snap.Version,
		Swaps:     e.metrics.swaps.Value(),
		UptimeSec: time.Since(e.started).Seconds(),
		Build:     st.snap.Build,
		Cache:     st.cache.stats(),
		Endpoints: make(map[string]EndpointStats, len(e.metrics.endpoints)),
	}
	for name, ep := range e.metrics.endpoints {
		out.Endpoints[name] = EndpointStats{
			Count:     ep.requests.Value(),
			Errors:    ep.errors.Value(),
			LatencyUs: ep.latencyUs.Snapshot().Summary(),
		}
	}
	return out
}

// Package objects implements the object-location half of the paper's
// title: a Directory maps named objects to replica sets placed on nodes
// of a served snapshot, and resolves Lookup(obj, from) to the nearest
// replica.
//
// Exactness contract. An object is its replica set, kept sorted by
// stable id, and a lookup scans it: each replica's exact distance from
// the origin, in ascending stable ids with strict improvement, so the
// answer is the nearest replica with ties broken toward the lowest
// stable id — what any brute-force scan over the set answers, bit for
// bit. No per-object rings-of-neighbors overlay (the paper's Section 6
// search) is kept. Objects hold a handful of copies (no workload places
// more than 4), an overlay exact enough to serve needs complete rings,
// and such an overlay costs more than the scan it would shorten: at 4
// replicas on latency n = 1024 (BenchmarkDirectory, 2 vCPUs) its
// rebuild made a publish or unpublish ~47 µs and a lookup still took
// ~1.7 µs, where the slice edit takes ~0.16 µs and the scan ~0.14 µs.
//
// Identity under churn. Replicas and lookup origins are stored and
// answered in stable ids — base ids of the snapshot's Perm when it
// serves a churned subset (internal ids are renamed by the
// minimal-perturbation leave swap; base ids never move), the snapshot's
// own ids otherwise, and caller-supplied ids (shard.Fleet passes global
// ids) via NewWithIDs. SetSnapshot re-resolves the stable universe
// after every churn commit: replicas on departed nodes are re-published
// to the next-nearest surviving node (measured in the full base space,
// from the departed node) when the directory knows the base metric, or
// dropped and reported for the caller to re-place (the fleet re-places
// them globally across shards).
package objects

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"rings/internal/oracle"
)

// ErrUnknownObject marks a lookup or unpublish naming an object with no
// published replicas. HTTP surfaces map it to 404 "not_found".
var ErrUnknownObject = errors.New("objects: unknown object")

// ErrNoReplica marks an unpublish naming a node that holds no replica
// of the (existing) object.
var ErrNoReplica = errors.New("objects: node holds no replica of the object")

// ErrNotReady marks a directory over a flat-only snapshot (mmap warm
// start before hydration): estimates serve, but the object layer
// measures replicas through the ball index. HTTP surfaces map it to 503
// "unavailable".
var ErrNotReady = errors.New("objects: directory not hydrated (snapshot has no index yet)")

// DistFunc measures the distance between two stable ids, including ids
// currently dormant — the base-space metric behind a churned snapshot.
type DistFunc func(u, v int) float64

// Config tunes a Directory.
type Config struct {
	// Seed is ignored: it seeded the per-object overlays a lookup no
	// longer builds, and stays only because ringperf's replay
	// (bench/replay.go) still sets it.
	Seed int64
	// BaseDist, when set, lets SetSnapshot re-publish replicas stranded
	// on departing nodes to the next-nearest surviving node (distances
	// measured from the departed id in the base space). When nil,
	// departures are dropped and reported in the Republish records for
	// the caller to re-place.
	BaseDist DistFunc
	// Metrics receives the rings_objects_* series, the directory's only
	// counters (Stats reads them back). Left nil, the directory counts
	// into a private registry nobody exposes.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	return c
}

// Directory is the object-location table over one served snapshot. All
// methods are safe for concurrent use: mutations (Publish, Unpublish,
// SetSnapshot) take the write lock and edit sorted replica slices;
// lookups are pure reads under the read lock.
type Directory struct {
	mu   sync.RWMutex
	cfg  Config
	snap *oracle.Snapshot
	// ids maps internal snapshot ids to stable ids (nil = identity);
	// intOf is the inverse over the stable universe (-1 = not active).
	ids   []int32
	intOf []int32

	// objs maps each published object to its replicas in ascending
	// stable ids (never empty: the last unpublish deletes the entry).
	objs map[string][]int
}

// New builds a directory over snap, deriving stable ids from snap.Perm
// (base ids of a churned snapshot) or the identity.
func New(snap *oracle.Snapshot, cfg Config) *Directory {
	return NewWithIDs(snap, snap.Perm, snapUniverse(snap), cfg)
}

// NewWithIDs builds a directory whose stable ids are caller-supplied:
// ids[l] is the stable id of internal node l (nil = identity), drawn
// from [0, universe). shard.Fleet passes each shard's global ids so
// every directory of a fleet speaks one id space.
func NewWithIDs(snap *oracle.Snapshot, ids []int32, universe int, cfg Config) *Directory {
	d := &Directory{cfg: cfg.withDefaults(), objs: make(map[string][]int)}
	d.install(snap, ids, universe)
	return d
}

func snapUniverse(snap *oracle.Snapshot) int {
	if snap.Perm != nil && snap.Capacity > snap.N() {
		return snap.Capacity
	}
	return snap.N()
}

// install publishes a new snapshot's id mapping. Callers hold d.mu.
func (d *Directory) install(snap *oracle.Snapshot, ids []int32, universe int) {
	if ids != nil && len(ids) != snap.N() {
		panic(fmt.Sprintf("objects: %d stable ids for a %d-node snapshot", len(ids), snap.N()))
	}
	if universe < snap.N() {
		universe = snap.N()
	}
	d.snap, d.ids = snap, ids
	if len(d.intOf) != universe {
		d.intOf = make([]int32, universe)
	}
	for i := range d.intOf {
		d.intOf[i] = -1
	}
	for l := 0; l < snap.N(); l++ {
		d.intOf[d.stableOf(l)] = int32(l)
	}
}

func (d *Directory) stableOf(internal int) int {
	if d.ids != nil {
		return int(d.ids[internal])
	}
	return internal
}

// ready reports whether lookups can run (the snapshot carries an index;
// flat-only warm starts do not until hydration). Callers hold d.mu.
func (d *Directory) ready() bool { return d.snap != nil && d.snap.Idx != nil }

// Ready reports whether the object layer is serving (false between a
// flat-only warm start and its background hydration).
func (d *Directory) Ready() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ready()
}

// Universe reports the stable id-space size.
func (d *Directory) Universe() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.intOf)
}

// Publish places a replica of obj on the given stable id (idempotent —
// re-publishing to a holder is a no-op) and returns the resulting
// replica count.
func (d *Directory) Publish(obj string, node int) (int, error) {
	if obj == "" {
		return 0, fmt.Errorf("objects: empty object name")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.ready() {
		return 0, ErrNotReady
	}
	if node < 0 || node >= len(d.intOf) || d.intOf[node] < 0 {
		return 0, fmt.Errorf("objects: publish to node %d: %w", node, oracle.ErrNodeRange)
	}
	reps := d.objs[obj]
	i := sort.SearchInts(reps, node)
	if i < len(reps) && reps[i] == node {
		return len(reps), nil
	}
	reps = slices.Insert(reps, i, node)
	d.objs[obj] = reps
	d.cfg.Metrics.Publishes.Inc()
	d.setGauges()
	return len(reps), nil
}

// Unpublish removes obj's replica from the given stable id and returns
// the remaining replica count; removing the last replica deletes the
// object.
func (d *Directory) Unpublish(obj string, node int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	reps, ok := d.objs[obj]
	if !ok {
		return 0, fmt.Errorf("objects: unpublish %q: %w", obj, ErrUnknownObject)
	}
	i := sort.SearchInts(reps, node)
	if i >= len(reps) || reps[i] != node {
		return 0, fmt.Errorf("objects: unpublish %q from node %d: %w", obj, node, ErrNoReplica)
	}
	reps = slices.Delete(reps, i, i+1)
	if len(reps) == 0 {
		delete(d.objs, obj)
	} else {
		d.objs[obj] = reps
	}
	d.cfg.Metrics.Unpublishes.Inc()
	d.setGauges()
	return len(reps), nil
}

// LookupResult is one resolved lookup.
type LookupResult struct {
	Object string `json:"object"`
	// Node is the nearest replica's stable id (the lowest among equally
	// near ones); Dist the exact metric distance from the origin to it.
	Node int     `json:"node"`
	Dist float64 `json:"dist"`
	// Hops always reads 0: a lookup forwards nowhere. It stays only
	// because ringperf's replay (bench/replay.go) still reads it, and it
	// is not on the wire.
	Hops     int   `json:"-"`
	Replicas int   `json:"replicas"`
	Version  int64 `json:"version"`
}

// Lookup resolves obj from the given stable origin id to its nearest
// replica by scanning the replica set (see the package comment).
func (d *Directory) Lookup(obj string, from int) (LookupResult, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.ready() {
		return LookupResult{}, ErrNotReady
	}
	if from < 0 || from >= len(d.intOf) || d.intOf[from] < 0 {
		return LookupResult{}, fmt.Errorf("objects: lookup from node %d: %w", from, oracle.ErrNodeRange)
	}
	reps, ok := d.objs[obj]
	if !ok {
		d.cfg.Metrics.NotFound.Inc()
		return LookupResult{}, fmt.Errorf("objects: lookup %q: %w", obj, ErrUnknownObject)
	}
	target := int(d.intOf[from])
	node, dist := nearest(reps, func(s int) float64 { return d.snap.Idx.Dist(int(d.intOf[s]), target) })
	d.cfg.Metrics.Lookups.Inc()
	return LookupResult{
		Object:   obj,
		Node:     node,
		Dist:     dist,
		Replicas: len(reps),
		Version:  d.snap.Version,
	}, nil
}

// nearest is the scan every lookup runs: replicas in ascending stable
// ids, strict improvement, so the lowest stable id among the closest
// wins. It answers (-1, 0) for an empty set.
func nearest(replicas []int, dist func(stable int) float64) (int, float64) {
	best, bestD := -1, 0.0
	for _, s := range replicas {
		if ds := dist(s); best < 0 || ds < bestD {
			best, bestD = s, ds
		}
	}
	return best, bestD
}

// NearestFrom scans the replicas of obj this directory holds with the
// caller's metric (Lookup's scan) and reports the winner and the set's
// size, (-1, 0, 0) when it holds none. shard.Fleet folds it across its
// shard directories, which share one stable id space.
func (d *Directory) NearestFrom(obj string, dist func(stable int) float64) (node int, nodeDist float64, replicas int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	reps := d.objs[obj]
	node, nodeDist = nearest(reps, dist)
	return node, nodeDist, len(reps)
}

// Republish records one replica displaced by churn: From departed; To
// is the surviving node it was re-published to, or -1 when it was
// dropped (no BaseDist, or no candidate remained) for the caller to
// re-place.
type Republish struct {
	Object string `json:"object"`
	From   int    `json:"from"`
	To     int    `json:"to"`
}

// SetSnapshot installs a new snapshot (stable ids derived from its
// Perm, like New) and repairs the table: replicas on departed stable
// ids are re-published to the next-nearest surviving node (BaseDist
// set) or dropped and reported. Processing order is deterministic — objects by
// ascending name, departures by ascending stable id — so two
// directories fed the same commits evolve identically.
func (d *Directory) SetSnapshot(snap *oracle.Snapshot) []Republish {
	return d.SetSnapshotIDs(snap, snap.Perm, snapUniverse(snap))
}

// SetSnapshotIDs is SetSnapshot with caller-supplied stable ids (see
// NewWithIDs).
func (d *Directory) SetSnapshotIDs(snap *oracle.Snapshot, ids []int32, universe int) []Republish {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.install(snap, ids, universe)

	// Only objects with a replica on a departed id change: the stable
	// ids of the others still name active nodes.
	departed := func(s int) bool { return s >= len(d.intOf) || d.intOf[s] < 0 }
	var names []string
	for name, reps := range d.objs {
		if slices.ContainsFunc(reps, departed) {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var out []Republish
	var active []int // ascending survivors, built on first departure
	for _, name := range names {
		reps := d.objs[name]
		kept := slices.DeleteFunc(slices.Clone(reps), departed)
		for _, gone := range reps {
			if !departed(gone) {
				continue
			}
			if d.cfg.BaseDist == nil {
				out = append(out, Republish{Object: name, From: gone, To: -1})
				continue
			}
			if active == nil {
				for s, l := range d.intOf {
					if l >= 0 {
						active = append(active, s)
					}
				}
			}
			// Next-nearest surviving node to the departed one, skipping
			// current holders; ascending scan with strict improvement
			// breaks ties toward the lowest stable id.
			best, bestD := -1, 0.0
			for _, c := range active {
				if i := sort.SearchInts(kept, c); i < len(kept) && kept[i] == c {
					continue
				}
				if dc := d.cfg.BaseDist(gone, c); best < 0 || dc < bestD {
					best, bestD = c, dc
				}
			}
			out = append(out, Republish{Object: name, From: gone, To: best})
			if best < 0 {
				continue
			}
			kept = slices.Insert(kept, sort.SearchInts(kept, best), best)
			d.cfg.Metrics.Republishes.Inc()
		}
		if len(kept) == 0 {
			delete(d.objs, name)
		} else {
			d.objs[name] = kept
		}
	}
	d.setGauges()
	return out
}

// Stats is the directory's self-report (the /objects/stats and /healthz
// payload).
type Stats struct {
	Ready       bool  `json:"ready"`
	Objects     int   `json:"objects"`
	Replicas    int   `json:"replicas"`
	MaxReplicas int   `json:"max_replicas"`
	Publishes   int64 `json:"publishes"`
	Unpublishes int64 `json:"unpublishes"`
	Republishes int64 `json:"republishes"`
	Lookups     int64 `json:"lookups"`
	NotFound    int64 `json:"not_found"`
	Version     int64 `json:"version"`
}

// Stats reports the current directory state and its counters, read from
// the telemetry series.
func (d *Directory) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m := d.cfg.Metrics
	st := Stats{
		Ready:       d.ready(),
		Objects:     len(d.objs),
		Publishes:   m.Publishes.Value(),
		Unpublishes: m.Unpublishes.Value(),
		Republishes: m.Republishes.Value(),
		Lookups:     m.Lookups.Value(),
		NotFound:    m.NotFound.Value(),
	}
	if d.snap != nil {
		st.Version = d.snap.Version
	}
	for _, reps := range d.objs {
		st.Replicas += len(reps)
		st.MaxReplicas = max(st.MaxReplicas, len(reps))
	}
	return st
}

// Objects lists the published object names, sorted.
func (d *Directory) Objects() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.objs))
	for name := range d.objs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Replicas returns obj's replica set in ascending stable ids (nil when
// unknown).
func (d *Directory) Replicas(obj string) []int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return slices.Clone(d.objs[obj])
}

// ReplicaCount reports how many replicas obj has (0 when unknown),
// copying nothing.
func (d *Directory) ReplicaCount(obj string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.objs[obj])
}

// Has reports whether obj has any published replica.
func (d *Directory) Has(obj string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.objs[obj]
	return ok
}

// CurrentOf maps a stable id to its current internal snapshot id (-1
// when not active) — what HTTP surfaces use to answer in the same id
// currency as the query endpoints.
func (d *Directory) CurrentOf(stable int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if stable < 0 || stable >= len(d.intOf) {
		return -1
	}
	return int(d.intOf[stable])
}

// setGauges refreshes the object/replica gauges. Callers hold d.mu.
func (d *Directory) setGauges() {
	replicas := 0
	for _, reps := range d.objs {
		replicas += len(reps)
	}
	d.cfg.Metrics.Objects.Set(float64(len(d.objs)))
	d.cfg.Metrics.Replicas.Set(float64(replicas))
}

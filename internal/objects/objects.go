// Package objects implements the object-location half of the paper's
// title: a Directory maps named objects to replica sets placed on nodes
// of a served snapshot, and resolves Lookup(obj, from) to the nearest
// replica through a rings-of-neighbors overlay restricted to the
// object's replica set (nnsearch, the paper's Section 6 / Meridian
// application), so lookup work scales with the replica set and the
// distance to the nearest copy — not with n.
//
// Exactness contract. Each object keeps its own mini-overlay over its
// replicas with rings dense enough to be complete (PerRing is raised to
// |replicas|-1, so every ring retains its whole annulus — replica sets
// are small, a handful of copies per object, which is what makes this
// affordable). A lookup first runs the Meridian climb to a ring-local
// optimum at distance r from the origin, then certifies it with a
// MultiRange(r) flood: with complete rings the flood collects every
// replica within r of the origin (the start member is within 2r of
// every such replica's acceptance test), so taking the (dist, stable id)
// minimum of the collected set answers exactly what a brute-force scan
// over the replicas would. TrueNearest runs that scan — Lookup computes
// it on every query for the stretch/miss accounting, and the churn gold
// standard asserts the two never diverge.
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
	"sort"
	"sync"

	"rings/internal/nnsearch"
	"rings/internal/oracle"
)

// ErrUnknownObject marks a lookup or unpublish naming an object with no
// published replicas. HTTP surfaces map it to 404 "not_found".
var ErrUnknownObject = errors.New("objects: unknown object")

// ErrNoReplica marks an unpublish naming a node that holds no replica
// of the (existing) object.
var ErrNoReplica = errors.New("objects: node holds no replica of the object")

// ErrNotReady marks a directory over a flat-only snapshot (mmap warm
// start before hydration): estimates serve, but the object layer needs
// the ball index to climb and certify. HTTP surfaces map it to 503
// "unavailable".
var ErrNotReady = errors.New("objects: directory not hydrated (snapshot has no index yet)")

// DistFunc measures the distance between two stable ids, including ids
// currently dormant — the base-space metric behind a churned snapshot.
type DistFunc func(u, v int) float64

// Config tunes a Directory.
type Config struct {
	// RingBase/PerRing/Seed shape the per-object overlays (defaults 2 /
	// 8 / 0 — Meridian's constants). PerRing is a floor: it is raised
	// per object to keep rings complete, which is what makes lookups
	// exact (see the package comment).
	RingBase float64
	PerRing  int
	Seed     int64
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
	if c.RingBase <= 1 {
		c.RingBase = 2
	}
	if c.PerRing < 1 {
		c.PerRing = 8
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	return c
}

// object is one published object: its replica set in ascending stable
// ids and the complete-ring overlay over the replicas' current internal
// ids (nil while the directory is not ready).
type object struct {
	replicas []int
	overlay  *nnsearch.Overlay
}

// Directory is the object-location table over one served snapshot. All
// methods are safe for concurrent use: mutations (Publish, Unpublish,
// SetSnapshot) take the write lock and rebuild the touched overlays
// eagerly — O(replicas²) per object, trivial at replica-set scale —
// so lookups are pure reads under the read lock.
type Directory struct {
	mu   sync.RWMutex
	cfg  Config
	snap *oracle.Snapshot
	// ids maps internal snapshot ids to stable ids (nil = identity);
	// intOf is the inverse over the stable universe (-1 = not active).
	ids   []int32
	intOf []int32

	objs map[string]*object
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
	d := &Directory{cfg: cfg.withDefaults(), objs: make(map[string]*object)}
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

// rebuild recomputes one object's overlay over the current snapshot.
// PerRing is raised to |replicas|-1 so every ring keeps its complete
// annulus — the density that makes the MultiRange certification exact.
// Callers hold d.mu.
func (d *Directory) rebuild(o *object) error {
	if !d.ready() {
		o.overlay = nil
		return nil
	}
	members := make([]int, len(o.replicas))
	for i, s := range o.replicas {
		members[i] = int(d.intOf[s])
	}
	per := d.cfg.PerRing
	if len(members)-1 > per {
		per = len(members) - 1
	}
	ov, err := nnsearch.New(d.snap.Idx, members, nnsearch.Config{
		RingBase: d.cfg.RingBase, PerRing: per, Seed: d.cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("objects: overlay rebuild: %w", err)
	}
	o.overlay = ov
	return nil
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
	o := d.objs[obj]
	if o == nil {
		o = &object{}
		d.objs[obj] = o
	}
	i := sort.SearchInts(o.replicas, node)
	if i < len(o.replicas) && o.replicas[i] == node {
		return len(o.replicas), nil
	}
	o.replicas = append(o.replicas, 0)
	copy(o.replicas[i+1:], o.replicas[i:])
	o.replicas[i] = node
	if err := d.rebuild(o); err != nil {
		o.replicas = append(o.replicas[:i], o.replicas[i+1:]...)
		if len(o.replicas) == 0 {
			delete(d.objs, obj)
		}
		return 0, err
	}
	d.cfg.Metrics.Publishes.Inc()
	d.setGauges()
	return len(o.replicas), nil
}

// Unpublish removes obj's replica from the given stable id and returns
// the remaining replica count; removing the last replica deletes the
// object.
func (d *Directory) Unpublish(obj string, node int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	o := d.objs[obj]
	if o == nil {
		return 0, fmt.Errorf("objects: unpublish %q: %w", obj, ErrUnknownObject)
	}
	i := sort.SearchInts(o.replicas, node)
	if i >= len(o.replicas) || o.replicas[i] != node {
		return 0, fmt.Errorf("objects: unpublish %q from node %d: %w", obj, node, ErrNoReplica)
	}
	o.replicas = append(o.replicas[:i], o.replicas[i+1:]...)
	if len(o.replicas) == 0 {
		delete(d.objs, obj)
	} else if err := d.rebuild(o); err != nil {
		return 0, err
	}
	d.cfg.Metrics.Unpublishes.Inc()
	d.setGauges()
	return len(o.replicas), nil
}

// LookupResult is one resolved lookup.
type LookupResult struct {
	Object string `json:"object"`
	// Node is the chosen replica's stable id; Dist the exact metric
	// distance from the origin to it (certified: equal to the
	// brute-force nearest-replica scan by the complete-ring argument).
	Node int     `json:"node"`
	Dist float64 `json:"dist"`
	// Hops counts the Meridian climb's forwarding steps; Scanned the
	// certification candidates the closing flood collected.
	Hops     int   `json:"hops"`
	Scanned  int   `json:"scanned"`
	Replicas int   `json:"replicas"`
	Version  int64 `json:"version"`
}

// Lookup resolves obj from the given stable origin id to its nearest
// replica: Meridian climb over the object's overlay, then a MultiRange
// certification flood, ties broken toward the lowest stable id.
func (d *Directory) Lookup(obj string, from int) (LookupResult, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.ready() {
		return LookupResult{}, ErrNotReady
	}
	if from < 0 || from >= len(d.intOf) || d.intOf[from] < 0 {
		return LookupResult{}, fmt.Errorf("objects: lookup from node %d: %w", from, oracle.ErrNodeRange)
	}
	o := d.objs[obj]
	if o == nil {
		d.cfg.Metrics.NotFound.Inc()
		return LookupResult{}, fmt.Errorf("objects: lookup %q: %w", obj, ErrUnknownObject)
	}
	target := int(d.intOf[from])
	ov := o.overlay
	budget := len(ov.Members()) + 1
	climb, err := ov.NearestMember(ov.Members()[0], target, budget)
	if err != nil {
		return LookupResult{}, fmt.Errorf("objects: lookup %q: %w", obj, err)
	}
	cand, err := ov.MultiRange(climb.Member, target, climb.Dist, budget)
	if err != nil {
		return LookupResult{}, fmt.Errorf("objects: lookup %q: %w", obj, err)
	}
	best, bestD := -1, 0.0
	for _, m := range cand {
		s, ds := d.stableOf(m), d.snap.Idx.Dist(m, target)
		if best < 0 || ds < bestD || (ds == bestD && s < best) {
			best, bestD = s, ds
		}
	}
	res := LookupResult{
		Object:   obj,
		Node:     best,
		Dist:     bestD,
		Hops:     climb.Hops,
		Scanned:  len(cand),
		Replicas: len(o.replicas),
		Version:  d.snap.Version,
	}
	m := d.cfg.Metrics
	m.Lookups.Inc()
	trueNode, trueDist := d.trueNearest(o, target)
	if trueNode != best || trueDist != bestD {
		m.Misses.Inc()
	}
	m.Hops.Observe(float64(res.Hops))
	m.Scanned.Observe(float64(res.Scanned))
	stretch := 1.0
	if trueDist > 0 {
		stretch = bestD / trueDist
	}
	m.Stretch.Observe(stretch)
	return res, nil
}

// trueNearest is the brute-force scan: ascending stable ids, strict
// improvement — the lowest stable id among the closest replicas wins,
// the same order Lookup's certification uses. Callers hold d.mu.
func (d *Directory) trueNearest(o *object, target int) (int, float64) {
	best, bestD := -1, 0.0
	for _, s := range o.replicas {
		if ds := d.snap.Idx.Dist(int(d.intOf[s]), target); best < 0 || ds < bestD {
			best, bestD = s, ds
		}
	}
	return best, bestD
}

// TrueNearest answers the brute-force nearest replica of obj from the
// given stable origin — the verification oracle Lookup is certified
// against.
func (d *Directory) TrueNearest(obj string, from int) (int, float64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.ready() {
		return 0, 0, ErrNotReady
	}
	if from < 0 || from >= len(d.intOf) || d.intOf[from] < 0 {
		return 0, 0, fmt.Errorf("objects: true-nearest from node %d: %w", from, oracle.ErrNodeRange)
	}
	o := d.objs[obj]
	if o == nil {
		return 0, 0, fmt.Errorf("objects: true-nearest %q: %w", obj, ErrUnknownObject)
	}
	node, dist := d.trueNearest(o, int(d.intOf[from]))
	return node, dist, nil
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
// Perm, like New) and repairs the table: overlays are rebuilt over the
// new internal ids, and replicas on departed stable ids are
// re-published to the next-nearest surviving node (BaseDist set) or
// dropped and reported. Processing order is deterministic — objects by
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

	names := make([]string, 0, len(d.objs))
	for name := range d.objs {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []Republish
	var active []int // ascending survivors, built on first departure
	for _, name := range names {
		o := d.objs[name]
		kept := make([]int, 0, len(o.replicas))
		var departed []int
		for _, s := range o.replicas {
			if s < len(d.intOf) && d.intOf[s] >= 0 {
				kept = append(kept, s)
			} else {
				departed = append(departed, s)
			}
		}
		for _, gone := range departed {
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
			i := sort.SearchInts(kept, best)
			kept = append(kept, 0)
			copy(kept[i+1:], kept[i:])
			kept[i] = best
			d.cfg.Metrics.Republishes.Inc()
		}
		o.replicas = kept
		if len(o.replicas) == 0 {
			delete(d.objs, name)
			continue
		}
		// Rebuild unconditionally: even without departures the internal
		// ids behind the stable set may have been renamed by the swap.
		d.rebuild(o)
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
	// Misses counts lookups whose overlay answer disagreed with the
	// brute-force scan — pinned to zero by the certification.
	Misses  int64 `json:"misses"`
	Version int64 `json:"version"`
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
		Misses:      m.Misses.Value(),
	}
	if d.snap != nil {
		st.Version = d.snap.Version
	}
	for _, o := range d.objs {
		st.Replicas += len(o.replicas)
		if len(o.replicas) > st.MaxReplicas {
			st.MaxReplicas = len(o.replicas)
		}
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
	o := d.objs[obj]
	if o == nil {
		return nil
	}
	return append([]int(nil), o.replicas...)
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
	for _, o := range d.objs {
		replicas += len(o.replicas)
	}
	d.cfg.Metrics.Objects.Set(float64(len(d.objs)))
	d.cfg.Metrics.Replicas.Set(float64(replicas))
}

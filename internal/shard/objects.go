package shard

import (
	"errors"
	"fmt"
	"sort"

	"rings/internal/objects"
	"rings/internal/oracle"
	"rings/internal/telemetry"
)

// Object location on the fleet: every shard owns a Directory over its
// own snapshot, keyed in global ids (NewWithIDs with the shard's
// local→global map), and a replica placed on global node g lives in
// shard owner(g)'s directory — publishes are owner-routed exactly like
// churn. A lookup is one scan of the fleet-wide replica set: every
// shard directory's replicas, each measured exactly in the base space,
// the (dist, global id) minimum winning — the same answer the
// single-engine Directory's scan gives over the same set. No beacon
// screen skips remote replicas: on latency n = 1024 one 24-landmark
// sandwich bound takes 150–220 ns, the exact distance it would spare
// 13–15 ns.
//
// Churn repair is global: a commit drops the departing node's replicas
// from the owning shard's directory (per-shard directories carry no
// BaseDist), and the fleet re-places each one on the next-nearest
// surviving node across ALL shards, measured from the departed node in
// the base space with ties toward the lowest global id — the identical
// policy (and processing order) a single-engine directory with
// BaseDist applies, which is what makes replica placement byte-equal
// across the two deployments.

// initObjects builds the per-shard directories and the fleet-level
// telemetry (called from finishInit, after every unit's state exists).
func (f *Fleet) initObjects() {
	f.objMetrics = objects.NewMetrics()
	f.objRefined = f.objMetrics.Reg.Counter("rings_objects_remote_refined_total",
		"Remote replicas whose exact distance was computed during fleet lookups.")
	for _, unit := range f.shards {
		st := unit.load()
		unit.dir = objects.NewWithIDs(st.snap, st.global, f.universe, objects.Config{})
	}
}

// ObjectsMetrics exposes the fleet's rings_objects_* registry for
// /metrics composition. The object and replica gauges are brought up to
// date here, on the scrape (ObjectStats sets them): objects may span
// shards, so their count is a union over every directory — too much to
// redo on each publish.
func (f *Fleet) ObjectsMetrics() *telemetry.Registry {
	f.ObjectStats()
	return f.objMetrics.Reg
}

// objectReplicaCount sums obj's replicas across every shard directory.
func (f *Fleet) objectReplicaCount(obj string) int {
	n := 0
	for _, unit := range f.shards {
		n += len(unit.dir.Replicas(obj))
	}
	return n
}

// PublishObject places a replica of obj on global node g (owner-routed
// to shard owner(g)'s directory; idempotent) and returns the fleet-wide
// replica count.
func (f *Fleet) PublishObject(obj string, g int) (int, error) {
	if err := f.checkGlobal(g); err != nil {
		return 0, err
	}
	dir := f.shards[owner(g, f.k)].dir
	prev := len(dir.Replicas(obj))
	n, err := dir.Publish(obj, g)
	if err != nil {
		return 0, err
	}
	if n > prev { // an idempotent re-publish is a no-op, not an accepted op
		f.objMetrics.Publishes.Inc()
	}
	return f.objectReplicaCount(obj), nil
}

// UnpublishObject removes obj's replica from global node g and returns
// the remaining fleet-wide replica count.
func (f *Fleet) UnpublishObject(obj string, g int) (int, error) {
	if err := f.checkGlobal(g); err != nil {
		return 0, err
	}
	if _, err := f.shards[owner(g, f.k)].dir.Unpublish(obj, g); err != nil {
		// The owner's directory not knowing the object doesn't mean the
		// fleet doesn't: distinguish "no such object" from "that node
		// holds no replica" across shards.
		if errors.Is(err, objects.ErrUnknownObject) {
			for _, unit := range f.shards {
				if unit.dir.Has(obj) {
					return 0, fmt.Errorf("objects: unpublish %q from node %d: %w", obj, g, objects.ErrNoReplica)
				}
			}
		}
		return 0, err
	}
	f.objMetrics.Unpublishes.Inc()
	return f.objectReplicaCount(obj), nil
}

// ObjectLookup is one fleet-resolved lookup: the exact nearest replica
// across every shard, plus where it lives.
type ObjectLookup struct {
	objects.LookupResult
	// Shard owns the chosen replica; Remote reports it lives outside
	// the origin's shard. Refined counts the remote replicas measured.
	Shard   int   `json:"shard"`
	Remote  bool  `json:"remote"`
	Refined int   `json:"refined"`
	Epoch   int64 `json:"epoch"`
}

// LookupObject resolves obj from global origin g to its nearest replica
// fleet-wide (epoch-fenced; see the file comment).
func (f *Fleet) LookupObject(obj string, g int) (ObjectLookup, error) {
	if err := f.checkGlobal(g); err != nil {
		return ObjectLookup{}, err
	}
	var out ObjectLookup
	epoch, err := f.fenced(func() error {
		var err error
		out, err = f.lookupObjectOnce(obj, g)
		return err
	})
	if err != nil {
		if errors.Is(err, objects.ErrUnknownObject) {
			f.objMetrics.NotFound.Inc()
		}
		return ObjectLookup{}, err
	}
	out.Epoch = epoch
	f.objMetrics.Lookups.Inc()
	f.objRefined.Add(int64(out.Refined))
	return out, nil
}

func (f *Fleet) lookupObjectOnce(obj string, g int) (ObjectLookup, error) {
	so := owner(g, f.k)
	stO := f.shards[so].load()
	if _, err := localOf(stO, g); err != nil {
		return ObjectLookup{}, err
	}
	dist := func(r int) float64 { return f.base.Dist(g, r) }
	best, bestD, replicas, refined := -1, 0.0, 0, 0
	for t, unit := range f.shards {
		node, d, n := unit.dir.NearestFrom(obj, dist)
		if n == 0 {
			continue
		}
		replicas += n
		if t != so {
			refined += n
		}
		if best < 0 || d < bestD || (d == bestD && node < best) {
			best, bestD = node, d
		}
	}
	if best < 0 {
		return ObjectLookup{}, fmt.Errorf("objects: lookup %q: %w", obj, objects.ErrUnknownObject)
	}
	bs := owner(best, f.k)
	return ObjectLookup{
		LookupResult: objects.LookupResult{
			Object:   obj,
			Node:     best,
			Dist:     bestD,
			Replicas: replicas,
			Version:  stO.snap.Version,
		},
		Shard:   bs,
		Remote:  bs != so,
		Refined: refined,
	}, nil
}

// repairObjectsLocked re-places replicas stranded by a churn commit on
// shard s: the shard's directory drops them (it carries no BaseDist),
// and each is re-published to the next-nearest surviving node across
// the whole fleet — measured from the departed node in the base space,
// ties toward the lowest global id, candidates excluding the object's
// current holders — matching the single-engine repair policy exactly.
// unit.mu of shard s is held.
func (f *Fleet) repairObjectsLocked(unit *shardUnit, snap *oracle.Snapshot) {
	dropped := unit.dir.SetSnapshotIDs(snap, snap.Perm, f.universe)
	if len(dropped) == 0 {
		return
	}
	// Survivors across the fleet, ascending (shard s's unit.state
	// already holds the post-commit membership).
	var active []int
	for _, u := range f.shards {
		for _, g := range u.load().global {
			active = append(active, int(g))
		}
	}
	sort.Ints(active)
	for _, rec := range dropped {
		holders := make(map[int]bool)
		for _, u := range f.shards {
			for _, r := range u.dir.Replicas(rec.Object) {
				holders[r] = true
			}
		}
		best, bestD := -1, 0.0
		for _, c := range active {
			if holders[c] {
				continue
			}
			if d := f.base.Dist(rec.From, c); best < 0 || d < bestD {
				best, bestD = c, d
			}
		}
		if best < 0 {
			continue // every survivor already holds a replica
		}
		if _, err := f.shards[owner(best, f.k)].dir.Publish(rec.Object, best); err != nil {
			continue // racing commit retired the candidate; drop the copy
		}
		f.objMetrics.Republishes.Inc()
	}
}

// ObjectStats is the fleet's object-layer self-report.
type ObjectStats struct {
	Ready    bool `json:"ready"`
	Objects  int  `json:"objects"`
	Replicas int  `json:"replicas"`
	// Fleet-level counters (per-shard directory counters are in
	// PerShard; fleet lookups never touch them).
	Lookups       int64 `json:"lookups"`
	NotFound      int64 `json:"not_found"`
	Publishes     int64 `json:"publishes"`
	Unpublishes   int64 `json:"unpublishes"`
	Republishes   int64 `json:"republishes"`
	RemoteRefined int64 `json:"remote_refined"`
	// PerShard reports each shard directory (owner-routed holdings).
	PerShard []objects.Stats `json:"per_shard"`
}

// ObjectStats aggregates the object layer across shards and publishes
// the counts it took as the rings_objects / rings_objects_replicas
// gauges.
func (f *Fleet) ObjectStats() ObjectStats {
	out := ObjectStats{
		Ready:         true,
		Lookups:       f.objMetrics.Lookups.Value(),
		NotFound:      f.objMetrics.NotFound.Value(),
		Publishes:     f.objMetrics.Publishes.Value(),
		Unpublishes:   f.objMetrics.Unpublishes.Value(),
		Republishes:   f.objMetrics.Republishes.Value(),
		RemoteRefined: f.objRefined.Value(),
	}
	names := make(map[string]struct{})
	for _, unit := range f.shards {
		st := unit.dir.Stats()
		out.Replicas += st.Replicas
		out.Ready = out.Ready && st.Ready
		for _, name := range unit.dir.Objects() {
			names[name] = struct{}{}
		}
		out.PerShard = append(out.PerShard, st)
	}
	out.Objects = len(names)
	f.objMetrics.Objects.Set(float64(out.Objects))
	f.objMetrics.Replicas.Set(float64(out.Replicas))
	return out
}

package shard

import (
	"fmt"
	"os"
	"time"

	"rings/internal/metric"
	"rings/internal/oracle"
	"rings/internal/par"
)

// SnapshotPath names shard s's snapshot file under a base path: one
// file per shard (base.shard0, base.shard1, ...), so a fleet persists
// and warm-starts exactly like the single engine does with one file.
func SnapshotPath(base string, s int) string {
	return fmt.Sprintf("%s.shard%d", base, s)
}

// OpenFleet warm-starts a fleet from per-shard snapshot files (written
// by cmd/ringsrv on every swap, named by SnapshotPath). The global
// workload, partition and beacon tier regenerate deterministically from
// cfg — only the per-shard label payloads come from disk, which skips
// the dominant build phase for every shard: each primary maps its file
// and serves straight from the mapping (oracle.HydrateOver; released by
// Fleet.Close). All K files must exist and match the partition (node
// counts are validated by the v2 restore); callers fall back to
// NewFleet when any is missing.
//
// Churn fleets are refused: membership lives in the per-shard mutators,
// whose repair state is not reconstructible from the persisted labels
// (the same contract as the single-engine churn boot).
func OpenFleet(cfg Config, snapBase string) (*Fleet, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Churn {
		return nil, fmt.Errorf("shard: churn fleets boot fresh (mutator state is not persisted); snapshot files remain valid for a plain warm start")
	}
	start := time.Now()
	base, name, err := cfg.Oracle.Spec().Space()
	if err != nil {
		return nil, err
	}
	universe := base.N()

	f := &Fleet{
		cfg:      cfg,
		k:        cfg.Shards,
		name:     name,
		base:     base,
		universe: universe,
		tier:     newBeaconTier(base, universe, cfg.Beacons, cfg.BeaconSeed),
		shards:   make([]*shardUnit, cfg.Shards),
		metrics:  newFleetMetrics(cfg.Shards, cfg.Replicas),
	}
	owned := partition(universe, cfg.Shards)

	loaders := make([]func() error, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		loaders[s] = func() error {
			path := SnapshotPath(snapBase, s)
			mapped, err := oracle.OpenSnapshotFile(path)
			if err != nil {
				return fmt.Errorf("shard %d: %w", s, err)
			}
			shardName := fmt.Sprintf("%s/shard%d-of-%d", name, s, cfg.Shards)
			snap, err := mapped.HydrateOver(metric.NewSubspace(base, owned[s]), shardName)
			if err == nil && snap.Config.Scheme != cfg.Oracle.Scheme {
				err = fmt.Errorf("snapshot scheme %q, fleet wants %q", snap.Config.Scheme, cfg.Oracle.Scheme)
			}
			if err == nil {
				err = snap.ForceRouter() // a boot forces the router, warm like cold
			}
			if err != nil {
				mapped.Close()
				return fmt.Errorf("shard %d (%s): %w", s, path, err)
			}
			unit := &shardUnit{engine: oracle.NewEngine(snap, cfg.Engine)}
			unit.state.Store(f.newState(snap, owned[s], nil))
			f.shards[s] = unit
			return f.buildReplicas(unit, s, shardName, owned[s])
		}
	}
	if err := par.Group(loaders...); err != nil {
		f.releaseSnapshots()
		return nil, err
	}
	f.finishInit(start)
	return f, nil
}

// releaseSnapshots drops every primary's hold on its mapped shard file
// (a no-op for built, heap-backed snapshots).
func (f *Fleet) releaseSnapshots() {
	for _, unit := range f.shards {
		if unit != nil {
			unit.engine.Snapshot().Close()
		}
	}
}

// SnapshotFilesExist reports whether every per-shard snapshot file is
// present (the warm-start eligibility probe: a partial set means a
// previous persist never completed, and the caller should cold-build).
func SnapshotFilesExist(snapBase string, k int) bool {
	for s := 0; s < k; s++ {
		if _, err := os.Stat(SnapshotPath(snapBase, s)); err != nil {
			return false
		}
	}
	return true
}

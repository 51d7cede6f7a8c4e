// Package shard is the partitioned serving layer: one global node
// universe split across K shards, each owning its own oracle
// Snapshot/Engine built over its subspace, glued together by a shared
// beacon tier for cross-shard distance estimates.
//
// The single oracle.Engine of the serving stack funnels every query,
// swap and churn repair through one snapshot over one full metric; past
// a certain scale that one engine is the bottleneck. The paper already
// contains the glue for partitioned operation: rings-of-neighbors
// labels give (1+δ) accuracy locally, while Theorem 3.2's beacon
// scheme gives certified constant-factor estimates from a small shared
// landmark set — and Section 6 notes this framework underlies Meridian,
// a deployed P2P nearest-neighbor system, which is exactly the shape of
// a sharded fleet: precise within a shard, beacon-triangulated across
// shards.
//
// Architecture:
//
//   - One global workload is generated once; base ids partition across
//     K shards round-robin (owner(g) = g mod K), so every shard sees a
//     representative slice of the metric rather than one cluster.
//   - Each shard builds a full oracle.Snapshot over its
//     metric.Subspace via oracle.BuildSnapshotOver (shards build
//     concurrently through par.Group) and serves it from its own
//     oracle.Engine: intra-shard estimate/nearest/route answers are
//     byte-identical to a standalone engine built over that shard's
//     subspace, because they are produced by exactly that build.
//   - A beacon tier — landmark base ids measured against all nodes —
//     answers cross-shard estimates: for u, v in different shards,
//     lower = max_b |d(u,b)−d(v,b)| and upper = min_b d(u,b)+d(v,b).
//     Both bounds are triangle-inequality certificates, so every
//     answer self-certifies its factor (upper/lower ≥ upper/d); the
//     bench checks the sandwich per instance instead of assuming it.
//     Beacons are landmark points of the base space, not members, so
//     churn never invalidates them.
//   - Under churn each shard owns a churn.Mutator over its base-id
//     slice (churn.Universe): a join or leave repairs only the owning
//     shard's snapshot, and the only cross-shard state it touches is
//     the beacon vector of the joining/leaving node (survivor rows are
//     reused by pointer).
//
// cmd/ringsrv exposes the fleet over the same HTTP surface as the
// single engine (-shards K), cmd/ringload drives mixed intra/cross
// workloads against it, and ringperf's fleet-mixed workload (go run
// ./bench) tracks intra vs cross latency and measured cross-shard
// stretch in its shard.* rows.
package shard

import (
	"errors"
	"fmt"
	"time"

	"rings/internal/churn"
	"rings/internal/oracle"
)

// ChurnOp aliases churn.Op so callers routing mutations through the
// fleet (cmd/ringsrv, the facade) need not import the churn engine.
type ChurnOp = churn.Op

// Churn op kinds, re-exported alongside ChurnOp.
const (
	ChurnJoin  = churn.Join
	ChurnLeave = churn.Leave
)

// ErrCrossShard marks a route query whose endpoints live in different
// shards: compact-routing tables exist per shard only (a cross-shard
// router is future work — the beacon tier certifies distances, not
// paths).
var ErrCrossShard = errors.New("shard: route endpoints live in different shards")

// Config describes a fleet.
type Config struct {
	// Oracle is the per-shard build recipe; its workload knobs describe
	// the global instance (N is the global node count) and everything
	// else (scheme, profile, delta, toggles) applies to every shard.
	Oracle oracle.Config
	// Shards is the partition width K (>= 1).
	Shards int
	// Beacons is the landmark count of the cross-shard tier (default
	// 2*ceil(log2 n) + 4, at least 4, capped at the initial node count).
	Beacons int
	// BeaconSeed drives landmark selection (default Oracle.Seed).
	BeaconSeed int64
	// Churn enables per-shard churn mutators (Join/Leave).
	Churn bool
	// ChurnCapacity is the global universe size under churn (0 = 2n;
	// grid: the full lattice), split across shards like the live ids.
	ChurnCapacity int
	// MinShardNodes refuses leaves that would shrink a shard below this
	// floor (default 2).
	MinShardNodes int
	// Engine tunes every shard's serving engine (cache shards/capacity,
	// latency sampling).
	Engine oracle.EngineOptions

	// Replicas is the serving copies per shard (default 1: just the
	// authoritative engine). Replicas beyond the first are restored from
	// the primary's serialized snapshot (Snapshot.WriteTo) and kept
	// current by shipping on every commit, so any replica answers
	// byte-identically.
	Replicas int
	// HedgeAfter is the hedged-read trigger of a shard with a replica
	// behind a transport (see Transport): 0 adapts to twice the recent
	// p90 latency, > 0 fixes the delay, < 0 disables hedging. Shards
	// whose replicas are all in-process never hedge.
	HedgeAfter time.Duration
	// ProbeInterval paces the background health prober (default 250ms).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive transport-failure count that
	// opens a replica's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerBackoff is the first open-state probe delay (default
	// 100ms), doubling per failed probe up to BreakerMaxBackoff
	// (default 5s), jittered ±25%.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// Transport, when set, wraps each replica's backend (fault-injection
	// and chaos seam: e.g. a SimTransport endpoint with a fault plan, or
	// an artificial-delay shim). The fleet's admin gate wraps outside it.
	// Reads are hedged only on a shard where some wrapper reports
	// `Remote() bool` true: a wrapper that can stall must declare it, or
	// its shard answers inline and waits the stall out.
	Transport func(shard, replica int, b Backend) Backend
}

func (c Config) withDefaults() (Config, error) {
	c.Oracle = c.Oracle.WithDefaults()
	if c.Shards < 1 {
		return c, fmt.Errorf("shard: %d shards, want >= 1", c.Shards)
	}
	if c.BeaconSeed == 0 {
		c.BeaconSeed = c.Oracle.Seed
	}
	if c.MinShardNodes < 2 {
		c.MinShardNodes = 2
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.BreakerThreshold < 1 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = 100 * time.Millisecond
	}
	if c.BreakerMaxBackoff < c.BreakerBackoff {
		c.BreakerMaxBackoff = 5 * time.Second
		if c.BreakerMaxBackoff < c.BreakerBackoff {
			c.BreakerMaxBackoff = c.BreakerBackoff
		}
	}
	return c, nil
}

// owner reports the shard owning a global base id under the static
// round-robin partition.
func owner(g, k int) int { return g % k }

// partition splits the base ids [0, size) into k ascending owned
// slices.
func partition(size, k int) [][]int32 {
	out := make([][]int32, k)
	for s := range out {
		out[s] = make([]int32, 0, (size+k-1)/k)
	}
	for g := 0; g < size; g++ {
		out[g%k] = append(out[g%k], int32(g))
	}
	return out
}

// defaultBeaconCount sizes the landmark set for an n-node instance.
func defaultBeaconCount(n int) int {
	b := 4
	for m := 1; m < n; m *= 2 {
		b += 2
	}
	if b > n {
		b = n
	}
	return b
}

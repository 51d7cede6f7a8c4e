package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/churn"
	"rings/internal/metric"
	"rings/internal/objects"
	"rings/internal/oracle"
	"rings/internal/par"
	"rings/internal/telemetry"
	"rings/internal/workload"
)

// shardState is one shard's published mapping generation: the snapshot
// its engine serves, the local<->global id translation, and the beacon
// vectors aligned with the local ids. It is immutable once stored;
// mutations publish a fresh state after the engine swap, so any loaded
// state is internally consistent (queries verify the answering
// snapshot version against the state they mapped through).
type shardState struct {
	snap *oracle.Snapshot
	// global maps local (in-shard) ids to global base ids.
	global []int32
	// local maps global base ids to local ids; -1 when the node is not
	// active in this shard (dormant, or owned by another shard).
	local []int32
	// bvec holds one beacon vector per local id. Survivor rows are
	// shared by pointer across generations — a churn commit computes
	// fresh distances only for the joining node.
	bvec [][]float64
}

// shardUnit is one shard: its authoritative engine, its (optional)
// churn mutator, its replica roster and the atomically published state.
type shardUnit struct {
	engine *oracle.Engine
	// mu serializes mutations (the mutator is single-writer), state
	// publication and replica resyncs; queries never take it.
	mu    sync.Mutex
	mut   *churn.Mutator
	state atomic.Pointer[shardState]
	// prim is the authoritative in-process backend (replica 0's inner):
	// commits run through it directly, never through a gate or
	// transport, so the authoritative state advances even while the
	// primary is killed for serving.
	prim *localBackend
	// reps is the serving roster: replica 0 wraps prim, replicas 1..R-1
	// are snapshot-shipped copies. Every entry sits behind an admin gate
	// and an (optional) Config.Transport.
	reps *replicaSet
	// dir is the shard's object directory, keyed in global ids (replicas
	// on nodes this shard owns live here; see objects.go). Built in
	// finishInit; churn commits repair it via repairObjectsLocked.
	dir *objects.Directory
}

func (u *shardUnit) load() *shardState { return u.state.Load() }

// Fleet is the partitioned serving layer: K shardUnits behind one
// global-id front door, glued by the beacon tier. All query methods
// are safe for concurrent use and lock-free on the query path.
type Fleet struct {
	cfg      Config
	k        int
	name     string
	base     metric.Space
	universe int
	tier     *beaconTier
	shards   []*shardUnit

	rr atomic.Int64 // round-robin cursor for auto-join shard choice

	// epoch is the partition-map era: it bumps on every replica roster
	// change (breaker open, resync, kill/restart, explicit
	// AdvanceEpoch). Every routed operation captures it before resolving
	// owners and validates it after — a changed epoch re-runs the
	// operation rather than serving an answer assembled across eras.
	epoch atomic.Int64
	// epochHook, when set (tests only), runs inside the fenced section
	// of every routed operation, before the body: the deterministic seam
	// for proving that a mid-operation epoch change forces a retry.
	epochHook func(epoch int64, attempt int)

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once

	metrics *fleetMetrics

	// Object-location layer (objects.go): fleet-level rings_objects_*
	// telemetry plus the cross-shard pruning counters sharing its
	// registry. Per-shard directories live on the shardUnits.
	objMetrics *objects.Metrics
	objPruned  *telemetry.Counter
	objRefined *telemetry.Counter

	buildElapsed time.Duration
}

// NewFleet generates the global workload, partitions it round-robin
// across cfg.Shards shards, and builds every shard's snapshot
// concurrently (par.Group). Under cfg.Churn each shard additionally
// gets a churn mutator over its base-id slice.
func NewFleet(cfg Config) (*Fleet, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	spec := cfg.Oracle.Spec()
	var (
		base     metric.Space
		name     string
		initialN int
	)
	if cfg.Churn {
		initial, capacity, err := workload.ChurnSizes(spec, cfg.ChurnCapacity)
		if err != nil {
			return nil, err
		}
		base, name, err = workload.ChurnBase(spec, capacity)
		if err != nil {
			return nil, err
		}
		initialN = initial
	} else {
		base, name, err = spec.Space()
		if err != nil {
			return nil, err
		}
		initialN = base.N()
	}
	universe := base.N()
	if initialN/cfg.Shards < cfg.MinShardNodes {
		return nil, fmt.Errorf("shard: %d initial nodes over %d shards leaves fewer than %d per shard",
			initialN, cfg.Shards, cfg.MinShardNodes)
	}

	f := &Fleet{
		cfg:      cfg,
		k:        cfg.Shards,
		name:     name,
		base:     base,
		universe: universe,
		tier:     newBeaconTier(base, initialN, cfg.Beacons, cfg.BeaconSeed),
		shards:   make([]*shardUnit, cfg.Shards),
		metrics:  newFleetMetrics(cfg.Shards, cfg.Replicas),
	}
	owned := partition(universe, cfg.Shards)

	// Shards are independent full builds over disjoint subspaces; run
	// them concurrently — each build is itself parallel, but at serving
	// scale the label phases leave enough scheduling slack that
	// overlapping shards wins wall-clock on multi-core hosts.
	builders := make([]func() error, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		s := s
		builders[s] = func() error {
			shardName := fmt.Sprintf("%s/shard%d-of-%d", name, s, cfg.Shards)
			unit := &shardUnit{}
			var snap *oracle.Snapshot
			var global []int32
			if cfg.Churn {
				active := make([]int32, 0, len(owned[s]))
				for _, g := range owned[s] {
					if int(g) < initialN {
						active = append(active, g)
					}
				}
				shardCfg := cfg.Oracle
				mut, err := churn.NewMutator(churn.Config{
					Oracle:   shardCfg,
					MinNodes: cfg.MinShardNodes,
					Universe: &churn.Universe{
						Base:   base,
						Name:   shardName,
						Owned:  owned[s],
						Active: active,
					},
				})
				if err != nil {
					return fmt.Errorf("shard %d: %w", s, err)
				}
				unit.mut = mut
				snap = mut.Snapshot()
				global = snap.Perm
			} else {
				shardCfg := cfg.Oracle
				shardCfg.N = len(owned[s])
				built, err := oracle.BuildSnapshotOver(shardCfg, metric.NewSubspace(base, owned[s]), shardName)
				if err != nil {
					return fmt.Errorf("shard %d: %w", s, err)
				}
				snap = built
				global = owned[s]
			}
			unit.engine = oracle.NewEngine(snap, cfg.Engine)
			if err := f.buildReplicas(unit, s, shardName, owned[s]); err != nil {
				return err
			}
			unit.state.Store(f.newState(snap, global, nil))
			f.shards[s] = unit
			return nil
		}
	}
	if err := par.Group(builders...); err != nil {
		return nil, err
	}
	f.finishInit(start)
	return f, nil
}

// buildReplicas wires shard s's serving roster: the authoritative
// in-process backend as replica 0 plus cfg.Replicas-1 copies restored
// from the primary's serialized snapshot — the same WriteTo/Read wire
// format the resync path re-ships on every commit — each behind the
// optional Config.Transport and an admin gate with its own breaker.
func (f *Fleet) buildReplicas(unit *shardUnit, s int, shardName string, ownedIDs []int32) error {
	spaceOf := func(perm []int32, n int) (metric.Space, error) {
		if perm != nil {
			return metric.NewSubspace(f.base, perm), nil
		}
		return metric.NewSubspace(f.base, ownedIDs), nil
	}
	unit.prim = newLocalBackend(unit.engine, unit.mut, shardName, spaceOf)
	snap := unit.engine.Snapshot()
	reps := make([]*replica, 0, f.cfg.Replicas)
	add := func(idx int, inner Backend) *replica {
		b := inner
		if f.cfg.Transport != nil {
			b = f.cfg.Transport(s, idx, b)
		}
		remote := false
		if rm, ok := b.(interface{ Remote() bool }); ok {
			remote = rm.Remote()
		}
		g := &gate{inner: b}
		rep := &replica{
			shard:  s,
			idx:    idx,
			b:      g,
			gate:   g,
			remote: remote,
			stateG: f.metrics.breakerState.With(replicaLabel(s, idx)),
		}
		rep.brk.cfg = breakerConfig{
			threshold:  int32(f.cfg.BreakerThreshold),
			backoff:    f.cfg.BreakerBackoff,
			maxBackoff: f.cfg.BreakerMaxBackoff,
		}
		reps = append(reps, rep)
		return rep
	}
	add(0, unit.prim).vers.Store(&repVersions{era: snap.Version, engine: snap.Version})
	if f.cfg.Replicas > 1 {
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			return fmt.Errorf("shard %d: serialize snapshot for replicas: %w", s, err)
		}
		for i := 1; i < f.cfg.Replicas; i++ {
			repName := fmt.Sprintf("%s/replica%d", shardName, i)
			restored, err := oracle.ReadSnapshotFor(bytes.NewReader(buf.Bytes()), repName, spaceOf)
			if err != nil {
				return fmt.Errorf("shard %d replica %d: restore: %w", s, i, err)
			}
			eng := oracle.NewEngine(restored, f.cfg.Engine)
			rep := add(i, newLocalBackend(eng, nil, repName, spaceOf))
			rep.vers.Store(&repVersions{era: snap.Version, engine: eng.Snapshot().Version})
		}
	}
	unit.reps = newReplicaSet(f, reps)
	return nil
}

// finishInit publishes the fleet-level gauges, arms the epoch and
// starts the background health prober. Shared by NewFleet and
// OpenFleet.
func (f *Fleet) finishInit(start time.Time) {
	f.buildElapsed = time.Since(start)
	f.epoch.Store(1)
	f.metrics.epoch.Set(1)
	f.metrics.shards.Set(float64(f.k))
	f.metrics.beacons.Set(float64(len(f.tier.ids)))
	f.metrics.nodes.Set(float64(f.N()))
	f.metrics.replicas.Set(float64(f.cfg.Replicas))
	f.initObjects()
	f.probeStop = make(chan struct{})
	f.probeWG.Add(1)
	go f.prober()
}

// ---- replica lifecycle ------------------------------------------------

// ErrEpochFenced reports an operation that kept racing partition-map
// epoch changes past the bounded retry budget. It should be effectively
// unreachable: an epoch bump is a replica roster event, and eight in a
// row during one query means something is flapping hard enough that
// refusing is better than answering.
var ErrEpochFenced = errors.New("shard: operation kept racing partition-map epoch changes")

// errEpochChanged aborts a churn commit whose routing decision
// pre-dates an epoch bump (returned by the mutator fence; the commit
// loop re-captures and retries).
var errEpochChanged = errors.New("shard: epoch changed before commit")

// Epoch reports the current partition-map epoch.
func (f *Fleet) Epoch() int64 { return f.epoch.Load() }

// AdvanceEpoch bumps the partition-map epoch (every replica roster
// change calls it; exported for chaos harnesses) and returns the new
// value.
func (f *Fleet) AdvanceEpoch() int64 {
	e := f.epoch.Add(1)
	f.metrics.epoch.Set(float64(e))
	return e
}

// epochAttempts bounds the fenced retry loop (queries) and the commit
// fence loop (mutations).
const epochAttempts = 8

// fenced runs op under epoch validation: capture the epoch, run, and
// retry if the epoch moved while the operation was in flight. The
// returned epoch is the era the successful run observed throughout.
func (f *Fleet) fenced(op func() error) (int64, error) {
	for attempt := 0; attempt < epochAttempts; attempt++ {
		e := f.epoch.Load()
		if f.epochHook != nil {
			f.epochHook(e, attempt)
		}
		if err := op(); err != nil {
			return e, err
		}
		if f.epoch.Load() == e {
			return e, nil
		}
		f.metrics.epochRetries.Inc()
	}
	return 0, ErrEpochFenced
}

// replicaAt validates and resolves one replica address.
func (f *Fleet) replicaAt(s, r int) (*replica, error) {
	if s < 0 || s >= f.k {
		return nil, fmt.Errorf("shard: shard %d outside [0, %d)", s, f.k)
	}
	reps := f.shards[s].reps.reps
	if r < 0 || r >= len(reps) {
		return nil, fmt.Errorf("shard: shard %d has no replica %d (have %d)", s, r, len(reps))
	}
	return reps[r], nil
}

// KillReplica takes one replica out of service (admin kill switch: its
// gate fails every call as ErrUnavailable, its breaker opens, the
// epoch bumps). The authoritative state still advances under commits —
// killing replica 0 stops it from serving, not from owning the shard's
// mutator. Idempotent.
func (f *Fleet) KillReplica(s, r int) error {
	rep, err := f.replicaAt(s, r)
	if err != nil {
		return err
	}
	if rep.gate.down.Swap(true) {
		return nil
	}
	if rep.brk.trip(time.Now().UnixNano(), f.shards[s].reps.nextJitter()) {
		f.metrics.breakerOpens.Inc()
	}
	rep.setState(brkOpen)
	f.updateDownGauge()
	f.AdvanceEpoch()
	return nil
}

// RestartReplica returns a killed replica to the probe pipeline: the
// gate reopens and the breaker's next probe is pulled to now, so the
// prober health-checks it, resyncs its snapshot to the current era and
// closes the breaker (which is the moment it rejoins the candidate
// set and the epoch bumps). Idempotent.
func (f *Fleet) RestartReplica(s, r int) error {
	rep, err := f.replicaAt(s, r)
	if err != nil {
		return err
	}
	if !rep.gate.down.Swap(false) {
		return nil
	}
	rep.brk.retryAt.Store(time.Now().UnixNano())
	f.updateDownGauge()
	return nil
}

// ReplicaStatus is one replica's roster entry.
type ReplicaStatus struct {
	Shard   int `json:"shard"`
	Replica int `json:"replica"`
	// State is the breaker state: closed, open or half_open.
	State string `json:"state"`
	// Down reports the admin kill switch.
	Down bool `json:"down"`
	// Era is the authoritative snapshot version the replica serves;
	// Current reports whether that is the shard's live version.
	Era     int64 `json:"era"`
	Current bool  `json:"current"`
	// EngineVersion is the replica engine's own install counter.
	EngineVersion int64 `json:"engine_version"`
	Remote        bool  `json:"remote"`
	BreakerOpens  int64 `json:"breaker_opens"`
}

// ReplicaStatuses reports every replica of every shard.
func (f *Fleet) ReplicaStatuses() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, f.k*f.cfg.Replicas)
	for s, unit := range f.shards {
		live := unit.load().snap.Version
		for _, rep := range unit.reps.reps {
			st := ReplicaStatus{
				Shard:        s,
				Replica:      rep.idx,
				State:        brkName(rep.brk.state.Load()),
				Down:         rep.gate.down.Load(),
				Remote:       rep.remote,
				BreakerOpens: rep.brk.opens.Load(),
			}
			if v := rep.vers.Load(); v != nil {
				st.Era, st.EngineVersion = v.era, v.engine
				st.Current = v.era == live
			}
			out = append(out, st)
		}
	}
	return out
}

// Replicas reports the configured serving copies per shard.
func (f *Fleet) Replicas() int { return f.cfg.Replicas }

// ReplicasDown counts replicas currently out of service (killed or
// breaker not closed).
func (f *Fleet) ReplicasDown() int {
	down := 0
	for _, unit := range f.shards {
		for _, rep := range unit.reps.reps {
			if rep.gate.down.Load() || !rep.brk.available() {
				down++
			}
		}
	}
	return down
}

// Degraded reports whether any replica is out of service.
func (f *Fleet) Degraded() bool { return f.ReplicasDown() > 0 }

func (f *Fleet) updateDownGauge() {
	f.metrics.replicasDown.Set(float64(f.ReplicasDown()))
}

// Close stops the health prober and releases replica transports and
// mapped snapshot files. Safe to call more than once.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		close(f.probeStop)
		f.probeWG.Wait()
		for _, unit := range f.shards {
			for _, rep := range unit.reps.reps {
				_ = rep.b.Close()
			}
		}
		f.releaseSnapshots()
	})
}

// prober is the background health loop: every ProbeInterval it
// health-checks closed replicas (so a dark replica trips its breaker
// even without query traffic) and probes open ones whose backoff has
// expired, resyncing and closing the survivors.
func (f *Fleet) prober() {
	defer f.probeWG.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.probeStop:
			return
		case <-t.C:
			f.probeAll()
		}
	}
}

func (f *Fleet) probeAll() {
	for s, unit := range f.shards {
		rs := unit.reps
		for _, rep := range rs.reps {
			switch rep.brk.state.Load() {
			case brkClosed:
				gen := rep.brk.gen.Load()
				if _, err := rep.b.Health(); err != nil && IsUnavailable(err) {
					rs.fail(rep, gen)
				}
			default:
				now := time.Now().UnixNano()
				if now < rep.brk.retryAt.Load() {
					continue
				}
				rep.brk.state.Store(brkHalfOpen)
				rep.setState(brkHalfOpen)
				if _, err := rep.b.Health(); err != nil {
					rep.brk.reopen(now, rs.nextJitter())
					rep.setState(brkOpen)
					continue
				}
				f.resyncReplica(unit, s, rep)
			}
		}
	}
	f.updateDownGauge()
}

// resyncReplica catches a recovered replica up to the current era
// (re-shipping the authoritative snapshot if it missed commits while
// down) and closes its breaker — the failover-recovery pipeline.
// Holding unit.mu pairs the ship with a stable snapshot: commits wait
// for the resync rather than invalidating it mid-ship.
func (f *Fleet) resyncReplica(unit *shardUnit, s int, rep *replica) {
	start := time.Now()
	unit.mu.Lock()
	snap := unit.engine.Snapshot()
	if v := rep.vers.Load(); v == nil || v.era != snap.Version {
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			unit.mu.Unlock()
			rep.brk.reopen(time.Now().UnixNano(), unit.reps.nextJitter())
			rep.setState(brkOpen)
			return
		}
		ver, err := rep.b.Ship(buf.Bytes())
		if err != nil {
			unit.mu.Unlock()
			rep.brk.reopen(time.Now().UnixNano(), unit.reps.nextJitter())
			rep.setState(brkOpen)
			return
		}
		rep.vers.Store(&repVersions{era: snap.Version, engine: ver})
	}
	unit.mu.Unlock()
	rep.brk.close()
	rep.setState(brkClosed)
	f.metrics.resyncs.Inc()
	f.metrics.resyncUs.Observe(float64(time.Since(start).Microseconds()))
	f.AdvanceEpoch()
}

// newState assembles a shardState for the given membership, reusing
// survivor beacon rows from prev (nil prev = bulk fill).
func (f *Fleet) newState(snap *oracle.Snapshot, global []int32, prev *shardState) *shardState {
	st := &shardState{
		snap:   snap,
		global: global,
		local:  make([]int32, f.universe),
		bvec:   make([][]float64, len(global)),
	}
	for g := range st.local {
		st.local[g] = -1
	}
	for l, g := range global {
		st.local[g] = int32(l)
		if prev != nil && prev.local[g] >= 0 {
			st.bvec[l] = prev.bvec[prev.local[g]]
		} else {
			st.bvec[l] = f.tier.vector(int(g))
		}
	}
	return st
}

// K reports the shard count.
func (f *Fleet) K() int { return f.k }

// Name reports the global workload instance name.
func (f *Fleet) Name() string { return f.name }

// Universe reports the global id-space size (node ids are
// [0, Universe); under churn only a subset is active at a time).
func (f *Fleet) Universe() int { return f.universe }

// BuildElapsed reports the fleet build wall-clock.
func (f *Fleet) BuildElapsed() time.Duration { return f.buildElapsed }

// ChurnEnabled reports whether the fleet owns churn mutators.
func (f *Fleet) ChurnEnabled() bool { return f.cfg.Churn }

// Beacons reports the landmark count of the cross-shard tier.
func (f *Fleet) Beacons() int { return len(f.tier.ids) }

// N reports the total active node count across shards.
func (f *Fleet) N() int {
	n := 0
	for _, u := range f.shards {
		n += len(u.load().global)
	}
	return n
}

// Owner reports the shard owning a global id (the static round-robin
// partition; valid for any id in the universe, active or not).
func (f *Fleet) Owner(g int) (int, error) {
	if err := f.checkGlobal(g); err != nil {
		return 0, err
	}
	return owner(g, f.k), nil
}

// ShardN reports one shard's active node count.
func (f *Fleet) ShardN(s int) int { return len(f.shards[s].load().global) }

// ShardNodes returns a copy of one shard's active global ids in local
// order.
func (f *Fleet) ShardNodes(s int) []int32 {
	return append([]int32(nil), f.shards[s].load().global...)
}

// ShardSnapshot returns the snapshot one shard currently serves.
func (f *Fleet) ShardSnapshot(s int) *oracle.Snapshot { return f.shards[s].load().snap }

// ShardEngine returns one shard's engine (for stats inspection; query
// through the Fleet so ids stay global).
func (f *Fleet) ShardEngine(s int) *oracle.Engine { return f.shards[s].engine }

func (f *Fleet) checkGlobal(g int) error {
	if g < 0 || g >= f.universe {
		return fmt.Errorf("shard: node %d outside the universe [0, %d): %w", g, f.universe, oracle.ErrNodeRange)
	}
	return nil
}

// localOf resolves a global id inside a loaded state.
func localOf(st *shardState, g int) (int, error) {
	l := int(st.local[g])
	if l < 0 {
		return 0, fmt.Errorf("shard: node %d is not active: %w", g, oracle.ErrNodeRange)
	}
	return l, nil
}

// queryAttempts bounds the stale-mapping retry loop: a retry only
// fires when a churn swap lands between the state load and the engine
// answer, so a handful of attempts far exceeds any real contention;
// the final attempt answers directly from the loaded snapshot, which
// is consistent by construction.
const queryAttempts = 4

// remapCall is the stale-mapping retry protocol every intra-shard query
// runs under: load the shard's state, map the global ids through it
// (mapIDs), ask the serving path — the replica set when the shard is
// replicated, its authoritative engine otherwise (byte- and
// allocation-identical to the pre-replication fleet) — and accept the
// answer only if it came from the snapshot version the ids were mapped
// through. A churn swap landing in between shows up as a version
// mismatch or an ErrNodeRange and re-runs the mapping; after
// queryAttempts the loaded snapshot answers itself (fromSnap). call
// reports the engine version that answered. The returned state is the
// one the answer's ids belong to: callers translate back through it and
// stamp its version (answers are byte-identical across replicas, whose
// engines count their own installs).
func remapCall[L, T any](unit *shardUnit,
	mapIDs func(*shardState) (L, error),
	call func(Backend, L) (T, int64, error),
	fromSnap func(*oracle.Snapshot, L) (T, error),
) (T, *shardState, error) {
	var zero T
	for attempt := 0; ; attempt++ {
		st := unit.load()
		ids, err := mapIDs(st)
		if err != nil {
			return zero, nil, err
		}
		var res T
		switch {
		case attempt >= queryAttempts:
			res, err = fromSnap(st.snap, ids)
		case len(unit.reps.reps) > 1:
			res, err = rsCall(unit.reps, st.snap.Version, func(b Backend) (T, int64, error) {
				return call(b, ids)
			})
		default:
			var ver int64
			if res, ver, err = call(unit.prim, ids); err == nil && ver != st.snap.Version {
				err = errStaleReplica
			}
		}
		if err == nil {
			return res, st, nil
		}
		if attempt < queryAttempts && (errors.Is(err, errStaleReplica) || errors.Is(err, oracle.ErrNodeRange)) {
			continue
		}
		return zero, nil, err
	}
}

// localPair resolves two global ids inside one loaded state.
func localPair(st *shardState, a, b int) ([2]int, error) {
	la, err := localOf(st, a)
	if err != nil {
		return [2]int{}, err
	}
	lb, err := localOf(st, b)
	return [2]int{la, lb}, err
}

// EstimateResult is one fleet distance estimate: the oracle result in
// global ids plus shard attribution. Cross-shard answers come from the
// beacon tier (Lower/Upper are unconditional triangle-inequality
// bounds; their ratio is the per-pair certified factor).
type EstimateResult struct {
	oracle.EstimateResult
	UShard int  `json:"ushard"`
	VShard int  `json:"vshard"`
	Cross  bool `json:"cross"`
	// Epoch is the partition-map era the whole answer was assembled
	// under (epoch fencing re-runs the query when it moves mid-flight).
	Epoch int64 `json:"epoch"`
}

// Estimate answers one estimate for global ids u, v: delegated to the
// owning shard's replica set (cache and stats included) when the
// endpoints share a shard, beacon-glued otherwise. The whole operation
// is epoch-fenced.
func (f *Fleet) Estimate(u, v int) (EstimateResult, error) {
	if err := f.checkGlobal(u); err != nil {
		return EstimateResult{}, err
	}
	if err := f.checkGlobal(v); err != nil {
		return EstimateResult{}, err
	}
	su, sv := owner(u, f.k), owner(v, f.k)
	var out EstimateResult
	epoch, err := f.fenced(func() error {
		var err error
		if su != sv {
			out, err = f.crossEstimate(u, v, su, sv, f.currentState)
		} else {
			out, err = f.intraEstimate(u, v, su)
		}
		return err
	})
	if err != nil {
		return EstimateResult{}, err
	}
	out.Epoch = epoch
	if out.Cross {
		f.observeCross(out.Lower, out.Upper)
	} else {
		f.metrics.intra.Inc()
	}
	return out, nil
}

// intraEstimate answers one same-shard estimate through remapCall.
func (f *Fleet) intraEstimate(u, v, s int) (EstimateResult, error) {
	res, st, err := remapCall(f.shards[s],
		func(st *shardState) ([2]int, error) { return localPair(st, u, v) },
		func(b Backend, l [2]int) (oracle.EstimateResult, int64, error) {
			r, err := b.Estimate(l[0], l[1])
			return r, r.Version, err
		},
		func(snap *oracle.Snapshot, l [2]int) (oracle.EstimateResult, error) {
			return snap.Estimate(l[0], l[1])
		})
	if err != nil {
		return EstimateResult{}, err
	}
	res.U, res.V, res.Version = u, v, st.snap.Version
	return EstimateResult{EstimateResult: res, UShard: s, VShard: s}, nil
}

// currentState loads shard s's published state.
func (f *Fleet) currentState(s int) *shardState { return f.shards[s].load() }

// crossEstimate folds the two nodes' beacon vectors into the sandwich
// bounds. stateOf supplies each shard's state: the current one for a
// single query, one load per shard for a whole batch.
func (f *Fleet) crossEstimate(u, v, su, sv int, stateOf func(int) *shardState) (EstimateResult, error) {
	stU := stateOf(su)
	lu, err := localOf(stU, u)
	if err != nil {
		return EstimateResult{}, err
	}
	stV := stateOf(sv)
	lv, err := localOf(stV, v)
	if err != nil {
		return EstimateResult{}, err
	}
	lower, upper := f.tier.estimate(stU.bvec[lu], stV.bvec[lv])
	return EstimateResult{
		EstimateResult: oracle.EstimateResult{
			U:       u,
			V:       v,
			Lower:   lower,
			Upper:   upper,
			OK:      !math.IsInf(upper, 1),
			Version: stU.snap.Version,
		},
		UShard: su,
		VShard: sv,
		Cross:  true,
	}, nil
}

// EstimateBatch answers many pairs. Intra-shard pairs group by owning
// shard and run through that shard's engine in one EstimateBatch call
// — cache, counters and latency histograms included, and one snapshot
// per shard per batch by the engine's own consistency contract (the
// mapping is version-checked against the answering snapshot, with the
// same bounded remap-retry as single queries). Cross-shard pairs fold
// beacon vectors from each shard's state, loaded once per batch.
// Invalid pairs fail the whole batch.
func (f *Fleet) EstimateBatch(pairs []oracle.Pair) ([]EstimateResult, error) {
	var out []EstimateResult
	intra := 0
	epoch, err := f.fenced(func() error {
		out = make([]EstimateResult, len(pairs))
		intra = 0
		states := make([]*shardState, f.k)
		stateOf := func(s int) *shardState {
			if states[s] == nil {
				states[s] = f.shards[s].load()
			}
			return states[s]
		}
		groups := make([][]int, f.k) // intra pair indices by owning shard
		for i, p := range pairs {
			if err := f.checkGlobal(p.U); err != nil {
				return fmt.Errorf("pair %d: %w", i, err)
			}
			if err := f.checkGlobal(p.V); err != nil {
				return fmt.Errorf("pair %d: %w", i, err)
			}
			su, sv := owner(p.U, f.k), owner(p.V, f.k)
			if su == sv {
				groups[su] = append(groups[su], i)
				continue
			}
			var err error
			if out[i], err = f.crossEstimate(p.U, p.V, su, sv, stateOf); err != nil {
				return fmt.Errorf("pair %d: %w", i, err)
			}
		}
		for s, idxs := range groups {
			if len(idxs) == 0 {
				continue
			}
			if err := f.batchShard(s, pairs, idxs, out); err != nil {
				return err
			}
			intra += len(idxs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Account after the fenced section settles so an epoch retry doesn't
	// double-count.
	for i := range out {
		out[i].Epoch = epoch
		if out[i].Cross {
			f.observeCross(out[i].Lower, out[i].Upper)
		}
	}
	f.metrics.intra.Add(int64(intra))
	return out, nil
}

// batchShard answers one shard's intra pairs in one engine batch,
// through remapCall.
func (f *Fleet) batchShard(s int, pairs []oracle.Pair, idxs []int, out []EstimateResult) error {
	var mapErr error // a pair the mapping refused names itself; engine errors name the shard
	results, st, err := remapCall(f.shards[s],
		func(st *shardState) ([]oracle.Pair, error) {
			// A fresh slice per attempt: a hedged read that lost the race may
			// still be reading the previous attempt's.
			local := make([]oracle.Pair, len(idxs))
			for j, i := range idxs {
				l, err := localPair(st, pairs[i].U, pairs[i].V)
				if err != nil {
					mapErr = fmt.Errorf("pair %d: %w", i, err)
					return nil, mapErr
				}
				local[j] = oracle.Pair{U: l[0], V: l[1]}
			}
			return local, nil
		},
		func(b Backend, local []oracle.Pair) ([]oracle.EstimateResult, int64, error) {
			rs, err := b.EstimateBatch(local)
			if err == nil && len(rs) != len(local) {
				err = fmt.Errorf("backend answered %d results for %d pairs", len(rs), len(local))
			}
			if err != nil {
				return nil, 0, err
			}
			return rs, rs[0].Version, nil // idxs is never empty
		},
		func(snap *oracle.Snapshot, local []oracle.Pair) ([]oracle.EstimateResult, error) {
			rs := make([]oracle.EstimateResult, len(local))
			for j, lp := range local {
				var err error
				if rs[j], err = snap.Estimate(lp.U, lp.V); err != nil {
					return nil, err
				}
			}
			return rs, nil
		})
	if err != nil {
		if err == mapErr {
			return err
		}
		return fmt.Errorf("shard %d: %w", s, err)
	}
	for j, i := range idxs {
		res := results[j]
		res.U, res.V, res.Version = pairs[i].U, pairs[i].V, st.snap.Version
		out[i] = EstimateResult{EstimateResult: res, UShard: s, VShard: s}
	}
	return nil
}

// NearestResult is one fleet nearest-member query (global ids), plus
// the owning shard: the climb runs inside the target's shard overlay.
type NearestResult struct {
	oracle.NearestResult
	Shard int   `json:"shard"`
	Epoch int64 `json:"epoch"`
}

// Nearest answers one nearest-member query inside the target's shard
// (epoch-fenced, served by the shard's replica set).
func (f *Fleet) Nearest(target int) (NearestResult, error) {
	if err := f.checkGlobal(target); err != nil {
		return NearestResult{}, err
	}
	var out NearestResult
	epoch, err := f.fenced(func() error {
		var err error
		out, err = f.nearestOnce(target)
		return err
	})
	if err != nil {
		return NearestResult{}, err
	}
	out.Epoch = epoch
	return out, nil
}

func (f *Fleet) nearestOnce(target int) (NearestResult, error) {
	s := owner(target, f.k)
	res, st, err := remapCall(f.shards[s],
		func(st *shardState) (int, error) { return localOf(st, target) },
		func(b Backend, lt int) (oracle.NearestResult, int64, error) {
			r, err := b.Nearest(lt)
			return r, r.Version, err
		},
		(*oracle.Snapshot).Nearest)
	if err != nil {
		return NearestResult{}, err
	}
	res.Target, res.Version = target, st.snap.Version
	res.Member = int(st.global[res.Member])
	res.Path = globalPath(st, res.Path)
	return NearestResult{NearestResult: res, Shard: s}, nil
}

// RouteResult is one fleet route simulation (global ids) plus the
// owning shard.
type RouteResult struct {
	oracle.RouteResult
	Shard int   `json:"shard"`
	Epoch int64 `json:"epoch"`
}

// Route simulates one packet inside the shard owning both endpoints
// (epoch-fenced, served by the shard's replica set); endpoints in
// different shards return ErrCrossShard (the beacon tier certifies
// distances, not paths).
func (f *Fleet) Route(src, dst int) (RouteResult, error) {
	if err := f.checkGlobal(src); err != nil {
		return RouteResult{}, err
	}
	if err := f.checkGlobal(dst); err != nil {
		return RouteResult{}, err
	}
	s := owner(src, f.k)
	if s != owner(dst, f.k) {
		return RouteResult{}, fmt.Errorf("route %d -> %d: %w", src, dst, ErrCrossShard)
	}
	var out RouteResult
	epoch, err := f.fenced(func() error {
		var err error
		out, err = f.routeOnce(src, dst, s)
		return err
	})
	if err != nil {
		return RouteResult{}, err
	}
	out.Epoch = epoch
	return out, nil
}

func (f *Fleet) routeOnce(src, dst, s int) (RouteResult, error) {
	res, st, err := remapCall(f.shards[s],
		func(st *shardState) ([2]int, error) { return localPair(st, src, dst) },
		func(b Backend, l [2]int) (oracle.RouteResult, int64, error) {
			r, err := b.Route(l[0], l[1])
			return r, r.Version, err
		},
		func(snap *oracle.Snapshot, l [2]int) (oracle.RouteResult, error) {
			return snap.Route(l[0], l[1])
		})
	if err != nil {
		return RouteResult{}, err
	}
	res.Src, res.Dst, res.Version = src, dst, st.snap.Version
	res.Path = globalPath(st, res.Path)
	return RouteResult{RouteResult: res, Shard: s}, nil
}

func globalPath(st *shardState, path []int) []int {
	out := make([]int, len(path))
	for i, l := range path {
		out[i] = int(st.global[l])
	}
	return out
}

// ---- churn routing ----------------------------------------------------

// ErrNoChurn marks a mutation against a fleet built without Churn.
var ErrNoChurn = errors.New("shard: fleet built without churn")

// ChurnCommit reports one shard's committed mutation batch.
type ChurnCommit struct {
	Shard   int           `json:"shard"`
	Version int64         `json:"version"`
	ShardN  int           `json:"shard_n"`
	Bases   []int         `json:"bases"`
	Repair  churn.OpStats `json:"repair"`
	// Epoch is the partition-map era the commit was fenced against (the
	// mutator's pre-commit hook re-validates it inside Apply).
	Epoch int64 `json:"epoch"`
}

// Apply routes a mutation batch to the owning shards (ops group by
// owner; each group commits as one batch under that shard's lock) and
// returns one commit report per touched shard. Shards commit
// independently: on error the returned commits describe what already
// landed.
func (f *Fleet) Apply(ops []churn.Op) ([]ChurnCommit, error) {
	if !f.cfg.Churn {
		return nil, ErrNoChurn
	}
	groups := make(map[int][]churn.Op)
	var order []int
	for _, op := range ops {
		if err := f.checkGlobal(op.Base); err != nil {
			return nil, err
		}
		s := owner(op.Base, f.k)
		if _, seen := groups[s]; !seen {
			order = append(order, s)
		}
		groups[s] = append(groups[s], op)
	}
	sort.Ints(order)
	var commits []ChurnCommit
	for _, s := range order {
		commit, err := f.applyShard(s, groups[s])
		if err != nil {
			return commits, err
		}
		commits = append(commits, commit)
	}
	return commits, nil
}

// applyShard commits one shard's batch under the shard's mutation
// lock.
func (f *Fleet) applyShard(s int, ops []churn.Op) (ChurnCommit, error) {
	unit := f.shards[s]
	unit.mu.Lock()
	defer unit.mu.Unlock()
	return f.commitFenced(unit, s, ops)
}

// commitFenced is the epoch-validated commit loop: capture the epoch,
// commit with the mutator fence re-checking it at the head of Apply
// (before any mutation), and retry the handful of times an epoch bump
// can race the capture. unit.mu must be held.
func (f *Fleet) commitFenced(unit *shardUnit, s int, ops []churn.Op) (ChurnCommit, error) {
	for attempt := 0; attempt < epochAttempts; attempt++ {
		e := f.epoch.Load()
		commit, err := f.commitLocked(unit, s, ops, e)
		if errors.Is(err, errEpochChanged) {
			f.metrics.epochRetries.Inc()
			continue
		}
		if err == nil {
			commit.Epoch = e
		}
		return commit, err
	}
	return ChurnCommit{}, fmt.Errorf("shard %d: %w", s, ErrEpochFenced)
}

// commitLocked is the one mutation-commit/publish sequence every churn
// path shares (explicit Apply, AutoJoin, AutoLeave): mutate through the
// authoritative backend (the fence validates the epoch inside Apply,
// before any mutation), swap the delta snapshot into the shard engine,
// publish the new mapping state (fresh beacon vectors for joiners only,
// survivors reused by pointer), ship the snapshot to healthy replicas,
// account, and report. unit.mu must be held.
func (f *Fleet) commitLocked(unit *shardUnit, s int, ops []churn.Op, epoch int64) (ChurnCommit, error) {
	unit.mut.SetFence(func() error {
		if f.epoch.Load() != epoch {
			return errEpochChanged
		}
		return nil
	})
	_, err := unit.prim.Apply(ops)
	unit.mut.SetFence(nil)
	if err != nil {
		return ChurnCommit{}, err
	}
	snap := unit.engine.Snapshot()
	// The primary serves the new era the instant the swap lands — even
	// while killed for serving, so a restart resyncs from truth.
	unit.reps.reps[0].vers.Store(&repVersions{era: snap.Version, engine: snap.Version})
	unit.state.Store(f.newState(snap, snap.Perm, unit.load()))
	f.shipLocked(unit, snap)
	if unit.dir != nil {
		f.repairObjectsLocked(unit, snap)
	}
	bases := make([]int, len(ops))
	for i, op := range ops {
		bases[i] = op.Base
		if op.Kind == churn.Join {
			f.metrics.joins.Inc()
		} else {
			f.metrics.leaves.Inc()
		}
	}
	f.metrics.nodes.Set(float64(f.N()))
	return ChurnCommit{
		Shard:   s,
		Version: snap.Version,
		ShardN:  snap.N(),
		Bases:   bases,
		Repair:  unit.mut.Stats().Last,
	}, nil
}

// shipLocked pushes a freshly committed snapshot to every healthy
// non-primary replica (the v2 WriteTo wire format, serialized once).
// Downed or breaker-open replicas are skipped — the prober's resync
// catches them up when they recover. unit.mu must be held.
func (f *Fleet) shipLocked(unit *shardUnit, snap *oracle.Snapshot) {
	reps := unit.reps.reps
	if len(reps) <= 1 {
		return
	}
	var buf []byte
	for _, rep := range reps[1:] {
		if rep.gate.down.Load() || !rep.brk.available() {
			continue
		}
		if buf == nil {
			var b bytes.Buffer
			if _, err := snap.WriteTo(&b); err != nil {
				return // unshippable snapshot; replicas stale until resync
			}
			buf = b.Bytes()
		}
		gen := rep.brk.gen.Load()
		ver, err := rep.b.Ship(buf)
		if err != nil {
			if IsUnavailable(err) {
				unit.reps.fail(rep, gen)
			}
			continue
		}
		rep.vers.Store(&repVersions{era: snap.Version, engine: ver})
	}
}

// AutoJoin activates up to count dormant nodes, spreading them over
// shards round-robin. An empty commit list (nil error) means the
// universe is at capacity.
func (f *Fleet) AutoJoin(count int) ([]ChurnCommit, error) {
	if !f.cfg.Churn {
		return nil, ErrNoChurn
	}
	var commits []ChurnCommit
	remaining := count
	for probe := 0; probe < f.k && remaining > 0; probe++ {
		s := int(f.rr.Add(1)-1) % f.k
		unit := f.shards[s]
		commit, joined, err := func() (ChurnCommit, int, error) {
			unit.mu.Lock()
			defer unit.mu.Unlock()
			bases := unit.mut.DormantBases(remaining)
			if len(bases) == 0 {
				return ChurnCommit{}, 0, nil
			}
			ops := make([]churn.Op, len(bases))
			for i, b := range bases {
				ops[i] = churn.Op{Kind: churn.Join, Base: b}
			}
			c, err := f.commitFenced(unit, s, ops)
			return c, len(bases), err
		}()
		if err != nil {
			return commits, err
		}
		if joined == 0 {
			continue
		}
		commits = append(commits, commit)
		remaining -= joined
	}
	return commits, nil
}

// AutoLeave retires up to count random active nodes (shards chosen in
// proportion to their size, respecting each shard's floor). An empty
// commit list (nil error) means every shard sits at its floor.
func (f *Fleet) AutoLeave(count int, rng *rand.Rand) ([]ChurnCommit, error) {
	if !f.cfg.Churn {
		return nil, ErrNoChurn
	}
	var commits []ChurnCommit
	for i := 0; i < count; i++ {
		commit, ok, err := f.autoLeaveOne(rng)
		if err != nil {
			return commits, err
		}
		if !ok {
			break
		}
		commits = append(commits, commit)
	}
	return commits, nil
}

func (f *Fleet) autoLeaveOne(rng *rand.Rand) (ChurnCommit, bool, error) {
	// Weight the shard choice by active count, then probe the remaining
	// shards in order if the chosen one sits at its floor.
	first := f.pickShardByWeight(rng)
	for probe := 0; probe < f.k; probe++ {
		s := (first + probe) % f.k
		unit := f.shards[s]
		commit, ok, err := func() (ChurnCommit, bool, error) {
			unit.mu.Lock()
			defer unit.mu.Unlock()
			n := unit.mut.N()
			if n <= f.cfg.MinShardNodes {
				return ChurnCommit{}, false, nil
			}
			base := unit.mut.ActiveBase(rng.Intn(n))
			c, err := f.commitFenced(unit, s, []churn.Op{{Kind: churn.Leave, Base: base}})
			return c, err == nil, err
		}()
		if err != nil {
			return ChurnCommit{}, false, err
		}
		if ok {
			return commit, true, nil
		}
	}
	return ChurnCommit{}, false, nil
}

func (f *Fleet) pickShardByWeight(rng *rand.Rand) int {
	total := 0
	sizes := make([]int, f.k)
	for s, u := range f.shards {
		sizes[s] = len(u.load().global)
		total += sizes[s]
	}
	if total == 0 {
		return 0
	}
	r := rng.Intn(total)
	for s, sz := range sizes {
		if r < sz {
			return s
		}
		r -= sz
	}
	return f.k - 1
}

// ---- stats ------------------------------------------------------------

// ShardStats is one shard's self-report.
type ShardStats struct {
	Shard   int                `json:"shard"`
	N       int                `json:"n"`
	Version int64              `json:"version"`
	Engine  oracle.EngineStats `json:"engine"`
	Churn   *churn.Stats       `json:"churn,omitempty"`
	// Replicas is the shard's serving roster (omitted when R = 1 and
	// nothing has ever been down — the degenerate roster is implied).
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
}

// FleetStats is the fleet-level aggregation plus every shard's report.
type FleetStats struct {
	Shards   int   `json:"shards"`
	N        int   `json:"n"`
	Universe int   `json:"universe"`
	Beacons  int   `json:"beacons"`
	Intra    int64 `json:"intra_estimates"`
	Cross    int64 `json:"cross_estimates"`
	Joins    int64 `json:"joins"`
	Leaves   int64 `json:"leaves"`
	// Requests/Errors aggregate every shard engine's endpoint counters
	// (cross-shard estimates never touch an engine and are counted by
	// Cross alone).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Robustness aggregation (PR 8).
	Epoch        int64        `json:"epoch"`
	Replicas     int          `json:"replicas"`
	ReplicasDown int          `json:"replicas_down"`
	Hedges       int64        `json:"hedges"`
	HedgeWins    int64        `json:"hedge_wins"`
	Failovers    int64        `json:"failovers"`
	BreakerOpens int64        `json:"breaker_opens"`
	Resyncs      int64        `json:"resyncs"`
	EpochRetries int64        `json:"epoch_retries"`
	PerShard     []ShardStats `json:"per_shard"`
}

// Stats reports the fleet aggregation and the per-shard engine (and
// churn) reports; every counter is read from the telemetry registries.
func (f *Fleet) Stats() FleetStats {
	out := FleetStats{
		Shards:       f.k,
		Universe:     f.universe,
		Beacons:      len(f.tier.ids),
		Intra:        f.metrics.intra.Value(),
		Cross:        f.metrics.cross.Value(),
		Joins:        f.metrics.joins.Value(),
		Leaves:       f.metrics.leaves.Value(),
		Epoch:        f.epoch.Load(),
		Replicas:     f.cfg.Replicas,
		ReplicasDown: f.ReplicasDown(),
		Hedges:       f.metrics.hedges.Value(),
		HedgeWins:    f.metrics.hedgeWins.Value(),
		Failovers:    f.metrics.failovers.Value(),
		BreakerOpens: f.metrics.breakerOpens.Value(),
		Resyncs:      f.metrics.resyncs.Value(),
		EpochRetries: f.metrics.epochRetries.Value(),
	}
	statuses := f.ReplicaStatuses()
	for s, unit := range f.shards {
		st := unit.load()
		es := unit.engine.Stats()
		ss := ShardStats{Shard: s, N: len(st.global), Version: st.snap.Version, Engine: es}
		for _, rs := range statuses {
			if rs.Shard == s && (f.cfg.Replicas > 1 || rs.Down || rs.State != "closed") {
				ss.Replicas = append(ss.Replicas, rs)
			}
		}
		if unit.mut != nil {
			unit.mu.Lock()
			cs := unit.mut.Stats()
			unit.mu.Unlock()
			ss.Churn = &cs
		}
		for _, ep := range es.Endpoints {
			out.Requests += ep.Count
			out.Errors += ep.Errors
		}
		out.N += ss.N
		out.PerShard = append(out.PerShard, ss)
	}
	return out
}

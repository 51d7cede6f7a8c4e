package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rings/internal/churn"
	"rings/internal/objects"
	"rings/internal/oracle"
	"rings/internal/shard"
)

// replayer runs a recorded request list in-process against the layers'
// public functions, one root span per request and one child span around
// each call, and derives the per-layer metrics from those spans. It
// builds the same structures ringsrv builds for the workload, from the
// same dataset recipe, so the two passes see the same inputs.
type replayer struct {
	w   *workload
	n   int
	tr  *tracer
	m   map[string]float64
	tmp string

	seq      int64
	byKind   [numKinds][]time.Duration
	failed   int
	failures []string
}

func (rp *replayer) fail(format string, args ...any) {
	rp.failed++
	if len(rp.failures) < 5 {
		rp.failures = append(rp.failures, "in-process: "+fmt.Sprintf(format, args...))
	}
}

func (rp *replayer) run(log []request) error {
	var err error
	if rp.w.fleet {
		err = rp.fleet(log)
	} else {
		err = rp.single(log)
	}
	if err != nil {
		return err
	}
	d := rp.tr.durations()
	p := func(name string, q float64, unit time.Duration) float64 {
		return quantileDur(d[name], q, unit)
	}
	m := rp.m
	m["oracle.estimate_miss.p50_us"] = p("oracle.engine.estimate.miss", 0.5, time.Microsecond)
	m["oracle.estimate_miss.p99_us"] = p("oracle.engine.estimate.miss", 0.99, time.Microsecond)
	m["oracle.estimate_hit.p50_us"] = p("oracle.engine.estimate.hit", 0.5, time.Microsecond)
	m["oracle.nearest.p50_us"] = p("oracle.engine.nearest", 0.5, time.Microsecond)
	m["oracle.route.p50_us"] = p("oracle.engine.route", 0.5, time.Microsecond)
	m["oracle.swap.p50_us"] = p("oracle.engine.swap", 0.5, time.Microsecond)
	m["distlabel.estimate.p50_us"] = p("oracle.snapshot.estimate", 0.5, time.Microsecond)
	m["objects.lookup.p50_us"] = p("objects.directory.lookup", 0.5, time.Microsecond)
	m["objects.publish.p50_us"] = p("objects.directory.publish", 0.5, time.Microsecond)
	m["objects.set_snapshot.ms"] = p("objects.directory.set_snapshot", 0.5, time.Millisecond)
	m["churn.join.p50_ms"] = p("churn.mutator.apply.join", 0.5, time.Millisecond)
	m["churn.leave.p50_ms"] = p("churn.mutator.apply.leave", 0.5, time.Millisecond)
	m["churn.commit.max_ms"] = max(p("churn.mutator.apply.join", 1, time.Millisecond), p("churn.mutator.apply.leave", 1, time.Millisecond))
	m["shard.estimate_intra.p50_us"] = p("shard.fleet.estimate.intra", 0.5, time.Microsecond)
	m["shard.estimate_intra.p99_us"] = p("shard.fleet.estimate.intra", 0.99, time.Microsecond)
	m["shard.estimate_cross.p50_us"] = p("shard.fleet.estimate.cross", 0.5, time.Microsecond)
	m["shard.estimate_cross.p99_us"] = p("shard.fleet.estimate.cross", 0.99, time.Microsecond)
	m["shard.lookup.p50_us"] = p("shard.fleet.lookup", 0.5, time.Microsecond)
	m["shard.publish.p50_us"] = p("shard.fleet.publish", 0.5, time.Microsecond)
	return nil
}

// oracleConfig is the dataset recipe every workload's ringsrv builds
// from (the flags of workload.serverArgs, as a Config).
func oracleConfig(n int) oracle.Config {
	return oracle.Config{
		Workload: "latency", N: n, Seed: datasetSeed, Delta: 0.5,
		Scheme: oracle.SchemeLabels, Profile: oracle.ProfileTuned,
	}
}

// span runs fn as a child span of root and returns its duration.
func (rp *replayer) span(reqID int64, root int, name string, fn func()) time.Duration {
	sp := rp.tr.begin(reqID, rp.tr.id(root))
	fn()
	return rp.tr.end(sp, name)
}

// request opens the root span of one replayed request.
func (rp *replayer) request() (int64, int) {
	rp.seq++
	return rp.seq, rp.tr.begin(rp.seq, 0)
}

func (rp *replayer) done(k kind, root int) {
	rp.byKind[k] = append(rp.byKind[k], rp.tr.end(root, "inproc.request"))
}

func (rp *replayer) buildMetrics(b oracle.BuildStats) {
	rp.m["oracle.build.wall_s"] = b.TotalSec
	rp.m["oracle.build.index_s"] = b.IndexSec
	rp.m["oracle.build.triangulation_s"] = b.TriangulationSec
	rp.m["oracle.build.labels_s"] = b.LabelsTotalSec
	rp.m["oracle.build.overlay_s"] = b.OverlaySec
	rp.m["oracle.build.router_s"] = b.RouterSec
}

// wireBits is the mean Thm 3.4 wire size of a sample of the snapshot's
// labels, in bits (exact: the serializer's own count).
func wireBits(snap *oracle.Snapshot) (float64, error) {
	wire, err := snap.LabelWire()
	if err != nil {
		return 0, err
	}
	total, count := 0, 0
	for u := 0; u < len(snap.Labels); u += max(len(snap.Labels)/64, 1) {
		_, bits, err := wire.Encode(snap.Labels[u])
		if err != nil {
			return 0, err
		}
		total += bits
		count++
	}
	return float64(total) / float64(count), nil
}

// persist writes snap to path the way ringsrv's persister does (minus
// the rename) and returns how long the write took.
func persist(snap *oracle.Snapshot, path string) (time.Duration, error) {
	start := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if _, err := snap.WriteTo(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	return time.Since(start), f.Close()
}

// mallocsPer counts heap allocations per call of fn over reps calls.
func mallocsPer(reps int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reps)
}

func oraclePairs(ps []pair) []oracle.Pair {
	out := make([]oracle.Pair, len(ps))
	for i, p := range ps {
		out[i] = oracle.Pair{U: p.U, V: p.V}
	}
	return out
}

// nearestStretch is how far the climb's answer is from the closest
// overlay member: dist(target, answer) / min over members, where dist
// measures snapshot ids of snap.
func nearestStretch(snap *oracle.Snapshot, target int, got float64) float64 {
	best := -1.0
	for _, mem := range oracle.OverlayMembers(snap.N(), memberStride) {
		if d := snap.Idx.Dist(target, mem); best < 0 || d < best {
			best = d
		}
	}
	if best <= 0 {
		return 1
	}
	return got / best
}

// single replays a single-engine workload: oracle.Engine over a built
// (or, for a warm-start workload, file-restored) snapshot, with a
// churn.Mutator, per-commit persistence and the object directory beside
// it under churn — the objects ringsrv wires together in those modes.
func (rp *replayer) single(log []request) error {
	cfg := oracleConfig(rp.n)
	var (
		snap *oracle.Snapshot
		mut  *churn.Mutator
		err  error
	)
	if rp.w.churn {
		if mut, err = churn.NewMutator(churn.Config{Oracle: cfg, Capacity: 2 * rp.n}); err != nil {
			return err
		}
		snap = mut.Snapshot()
	} else if snap, err = oracle.BuildSnapshot(cfg); err != nil {
		return err
	}
	rp.buildMetrics(snap.Build)
	rp.m["oracle.arena.bytes_per_node"] = float64(snap.Flat.Bytes()) / float64(snap.N())
	if rp.m["distlabel.wire_bits_per_label"], err = wireBits(snap); err != nil {
		return err
	}

	path := filepath.Join(rp.tmp, "replay-snap.bin")
	var mapped *oracle.Snapshot
	if rp.w.warm || rp.w.churn {
		took, err := persist(snap, path)
		if err != nil {
			return err
		}
		rp.m["oracle.persist.write_s"] = took.Seconds()
		if st, err := os.Stat(path); err == nil {
			rp.m["oracle.persist.file_mb"] = float64(st.Size()) / (1 << 20)
		}
	}
	if rp.w.warm {
		// What a warm boot does: map the file and serve estimates from
		// it at once, then restore the full snapshot and swap it in.
		start := time.Now()
		if mapped, err = oracle.OpenSnapshotFile(path); err != nil {
			return err
		}
		defer mapped.Close()
		rp.m["oracle.persist.open_s"] = time.Since(start).Seconds()
		start = time.Now()
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		snap, err = oracle.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return err
		}
		rp.m["oracle.persist.restore_s"] = time.Since(start).Seconds()
	}

	engine := oracle.NewEngine(snap, oracle.EngineOptions{})
	dirCfg := objects.Config{}
	if mut != nil {
		dirCfg = objects.Config{Seed: cfg.Seed, BaseDist: mut.FrozenSpace().Base().Dist}
	}
	dir := objects.New(snap, dirCfg)

	var (
		nearStretch, repaired float64
		nearCount, commits    int
		fallbacks             float64
		batchNs, batchPairs   float64
	)
	for i := range log {
		r := &log[i]
		id, root := rp.request()
		switch r.kind {
		case kEstimate:
			var res oracle.EstimateResult
			sp := rp.tr.begin(id, rp.tr.id(root))
			res, err = engine.Estimate(r.u, r.v)
			if res.Cached {
				rp.tr.end(sp, "oracle.engine.estimate.hit")
			} else {
				rp.tr.end(sp, "oracle.engine.estimate.miss")
			}
		case kBatch:
			pairs := oraclePairs(r.pairs)
			took := rp.span(id, root, "oracle.engine.batch", func() { _, err = engine.EstimateBatch(pairs) })
			batchNs += float64(took)
			batchPairs += float64(len(pairs))
		case kNearest:
			var res oracle.NearestResult
			rp.span(id, root, "oracle.engine.nearest", func() { res, err = engine.Nearest(r.u) })
			if err == nil {
				nearStretch += nearestStretch(engine.Snapshot(), r.u, res.Dist)
				nearCount++
			}
		case kRoute:
			rp.span(id, root, "oracle.engine.route", func() { _, err = engine.Route(r.u, r.v) })
		case kJoin, kLeave:
			op := churn.Op{Kind: churn.Join, Base: r.u}
			if r.kind == kLeave {
				op.Kind = churn.Leave
			}
			var next *oracle.Snapshot
			rp.span(id, root, "churn.mutator.apply."+r.kind.String(), func() { next, err = mut.Apply(op) })
			if err != nil {
				break
			}
			rp.span(id, root, "oracle.engine.swap", func() { engine.Swap(next) })
			rp.span(id, root, "objects.directory.set_snapshot", func() { dir.SetSnapshot(next) })
			rp.span(id, root, "oracle.persist.write", func() { _, err = persist(next, path) })
			last := mut.Stats().Last
			repaired += float64(last.RepairedLabels)
			if last.FullFallback {
				fallbacks++
			}
			commits++
		default:
			err = fmt.Errorf("request kind %s has no single-engine replay", r.kind)
		}
		rp.done(r.kind, root)
		if err != nil {
			rp.fail("%s: %v", r.kind, err)
		}
	}
	rp.m["oracle.batch.ns_per_pair"] = ratio(batchNs, batchPairs)
	rp.m["oracle.nearest.stretch_mean"] = ratio(nearStretch, float64(nearCount))
	rp.m["churn.repaired_labels_mean"] = ratio(repaired, float64(commits))
	rp.m["churn.full_fallbacks_total"] = fallbacks

	// Layer probes over the same inputs, outside the request spans.
	served := engine.Snapshot()
	probes := 0
	for i := range log {
		r := &log[i]
		if r.kind == kEstimate && probes < 2000 && r.u < served.N() && r.v < served.N() {
			// The pointer walk over distlabel labels (the test oracle
			// the flat arenas are proven identical to).
			rp.span(0, -1, "oracle.snapshot.estimate", func() { _, err = served.Estimate(r.u, r.v) })
			probes++
		}
	}
	var batches [][]oracle.Pair
	for i := range log {
		if log[i].kind == kBatch && len(batches) < 200 {
			batches = append(batches, oraclePairs(log[i].pairs))
		}
	}
	if len(batches) > 0 {
		i := 0
		rp.m["oracle.batch.allocs_per_op"] = mallocsPer(len(batches), func() {
			_, err = engine.EstimateBatch(batches[i])
			i++
		})
	}
	if mapped != nil && len(batches) > 0 {
		// The same walk over the mmapped file instead of heap arenas.
		mappedEngine := oracle.NewEngine(mapped, oracle.EngineOptions{})
		start := time.Now()
		pairs := 0
		for _, b := range batches {
			if _, err = mappedEngine.EstimateBatch(b); err != nil {
				rp.fail("mapped batch: %v", err)
			}
			pairs += len(b)
		}
		rp.m["oracle.batch_mapped.ns_per_pair"] = ratio(float64(time.Since(start)), float64(pairs))
	}
	return nil
}

// fleet replays the sharded workload against shard.Fleet, then the same
// requests one layer down: the intra-shard ones against the owning
// shard's oracle.Engine, the lookups against per-shard object
// directories.
func (rp *replayer) fleet(log []request) error {
	fcfg := shard.Config{Oracle: oracleConfig(rp.n), Shards: fleetShards, Replicas: fleetReplicas}
	start := time.Now()
	fl, err := shard.NewFleet(fcfg)
	if err != nil {
		return err
	}
	defer fl.Close()
	rp.m["shard.build.wall_s"] = time.Since(start).Seconds()
	rp.buildMetrics(fl.ShardSnapshot(0).Build)
	arena := 0
	for s := 0; s < fl.K(); s++ {
		arena += fl.ShardSnapshot(s).Flat.Bytes()
	}
	rp.m["oracle.arena.bytes_per_node"] = float64(arena) / float64(rp.n)
	if rp.m["distlabel.wire_bits_per_label"], err = wireBits(fl.ShardSnapshot(0)); err != nil {
		return err
	}
	// local[g] is global id g's id inside its shard's snapshot.
	local := make([]int, rp.n)
	for s := 0; s < fl.K(); s++ {
		for l, g := range fl.ShardNodes(s) {
			local[g] = l
		}
	}
	placement := fixtureReplicas(rp.n)
	for obj, reps := range placement {
		for _, node := range reps {
			rp.span(0, -1, "shard.fleet.publish", func() { _, err = fl.PublishObject(objectName(obj), node) })
			if err != nil {
				return err
			}
		}
	}

	// Pass 1: the fleet's public calls.
	var (
		crossStretch, nearStretch   float64
		crossCount, unbounded       int
		nearCount, lookups, remotes int
	)
	for i := range log {
		r := &log[i]
		id, root := rp.request()
		switch r.kind {
		case kEstimate:
			var res shard.EstimateResult
			sp := rp.tr.begin(id, rp.tr.id(root))
			res, err = fl.Estimate(r.u, r.v)
			if !res.Cross {
				rp.tr.end(sp, "shard.fleet.estimate.intra")
				break
			}
			rp.tr.end(sp, "shard.fleet.estimate.cross")
			if d, derr := fl.TrueDist(r.u, r.v); derr == nil && err == nil {
				crossCount++
				if !res.OK {
					unbounded++
				} else if d > 0 {
					crossStretch += res.Upper / d
				}
			}
		case kNearest:
			var res shard.NearestResult
			rp.span(id, root, "shard.fleet.nearest", func() { res, err = fl.Nearest(r.u) })
			if err == nil {
				nearStretch += nearestStretch(fl.ShardSnapshot(res.Shard), local[r.u], res.Dist)
				nearCount++
			}
		case kRoute:
			rp.span(id, root, "shard.fleet.route", func() { _, err = fl.Route(r.u, r.v) })
		case kLookup:
			var res shard.ObjectLookup
			rp.span(id, root, "shard.fleet.lookup", func() { res, err = fl.LookupObject(objectName(r.obj), r.u) })
			lookups++
			if res.Remote {
				remotes++
			}
		case kPublish:
			rp.span(id, root, "shard.fleet.publish", func() { _, err = fl.PublishObject(objectName(r.obj), r.u) })
		case kUnpublish:
			rp.span(id, root, "shard.fleet.unpublish", func() { _, err = fl.UnpublishObject(objectName(r.obj), r.u) })
		default:
			err = fmt.Errorf("request kind %s has no fleet replay", r.kind)
		}
		rp.done(r.kind, root)
		if err != nil {
			rp.fail("%s: %v", r.kind, err)
		}
	}
	st := fl.Stats()
	rp.m["shard.hedges_per_kreq"] = 1000 * ratio(float64(st.Hedges), float64(len(log)))
	rp.m["shard.hedge_win_frac"] = ratio(float64(st.HedgeWins), float64(st.Hedges))
	rp.m["shard.failovers_total"] = float64(st.Failovers)
	rp.m["shard.epoch_retries_total"] = float64(st.EpochRetries)
	rp.m["shard.cross_stretch_mean"] = ratio(crossStretch, float64(crossCount-unbounded))
	rp.m["shard.cross_unbounded_frac"] = ratio(float64(unbounded), float64(crossCount))
	rp.m["shard.lookup.remote_frac"] = ratio(float64(remotes), float64(lookups))
	rp.m["oracle.nearest.stretch_mean"] = ratio(nearStretch, float64(nearCount))

	// Pass 2, one layer down: the owning shard's engine (its cache is
	// warm from pass 1, so these are mostly hits) and snapshot.
	sameShard := func(r *request) bool { return r.u%fleetShards == r.v%fleetShards }
	for i := range log {
		r := &log[i]
		eng := fl.ShardEngine(r.u % fleetShards)
		switch {
		case r.kind == kEstimate && sameShard(r):
			var res oracle.EstimateResult
			sp := rp.tr.begin(0, 0)
			res, err = eng.Estimate(local[r.u], local[r.v])
			if res.Cached {
				rp.tr.end(sp, "oracle.engine.estimate.hit")
			} else {
				rp.tr.end(sp, "oracle.engine.estimate.miss")
			}
			rp.span(0, -1, "oracle.snapshot.estimate", func() { _, err = eng.Snapshot().Estimate(local[r.u], local[r.v]) })
		case r.kind == kNearest:
			rp.span(0, -1, "oracle.engine.nearest", func() { _, err = eng.Nearest(local[r.u]) })
		case r.kind == kRoute:
			rp.span(0, -1, "oracle.engine.route", func() { _, err = eng.Route(local[r.u], local[r.v]) })
		}
		if err != nil {
			rp.fail("engine-level %s: %v", r.kind, err)
		}
	}

	// Pass 3: the objects layer alone. One directory per shard over that
	// shard's snapshot, holding the replicas the shard owns; each lookup
	// goes to the directory of its origin's shard when it has the object.
	dirs := make([]*objects.Directory, fl.K())
	for s := range dirs {
		dirs[s] = objects.NewWithIDs(fl.ShardSnapshot(s), fl.ShardNodes(s), rp.n, objects.Config{})
	}
	for obj, reps := range placement {
		for _, node := range reps {
			rp.span(0, -1, "objects.directory.publish", func() { _, err = dirs[node%fleetShards].Publish(objectName(obj), node) })
			if err != nil {
				return err
			}
		}
	}
	var hops, dirLookups float64
	var lookupReqs []*request
	for i := range log {
		r := &log[i]
		if d := dirs[r.u%fleetShards]; r.kind == kLookup && d.Has(objectName(r.obj)) {
			var res objects.LookupResult
			rp.span(0, -1, "objects.directory.lookup", func() { res, err = d.Lookup(objectName(r.obj), r.u) })
			if err != nil {
				rp.fail("directory lookup: %v", err)
			}
			hops += float64(res.Hops)
			dirLookups++
			if len(lookupReqs) < 1000 {
				lookupReqs = append(lookupReqs, r)
			}
		}
	}
	rp.m["objects.lookup.hops_mean"] = ratio(hops, dirLookups)
	if len(lookupReqs) > 0 {
		i := 0
		rp.m["objects.lookup.allocs_per_op"] = mallocsPer(len(lookupReqs), func() {
			r := lookupReqs[i]
			_, err = dirs[r.u%fleetShards].Lookup(objectName(r.obj), r.u)
			i++
		})
	}

	// Probes: batches through the fleet, and routing cost with the
	// caches off (Fleet.Estimate minus the owning engine's Estimate on
	// the same intra-shard pairs), which also yields the engines' miss
	// latency — on the serving fleet nearly every repeat is a hit.
	var pool []oracle.Pair
	for i := range log {
		if r := &log[i]; r.kind == kEstimate && len(pool) < 8*256 {
			pool = append(pool, oracle.Pair{U: r.u, V: r.v})
		}
	}
	if full := len(pool) / 256 * 256; full > 0 {
		start := time.Now()
		for at := 0; at < full; at += 256 {
			if _, err := fl.EstimateBatch(pool[at : at+256]); err != nil {
				rp.fail("fleet batch: %v", err)
			}
		}
		rp.m["shard.batch.ns_per_pair"] = ratio(float64(time.Since(start)), float64(full))
	}
	fcfg.Engine.CacheCapacity = -1
	bare, err := shard.NewFleet(fcfg)
	if err != nil {
		return err
	}
	defer bare.Close()
	var viaFleet, viaEngine []time.Duration
	for i := range log {
		r := &log[i]
		if r.kind != kEstimate || !sameShard(r) || len(viaFleet) >= 2000 {
			continue
		}
		viaFleet = append(viaFleet, rp.span(0, -1, "shard.fleet.estimate.nocache", func() { _, err = bare.Estimate(r.u, r.v) }))
		eng := bare.ShardEngine(r.u % fleetShards)
		viaEngine = append(viaEngine, rp.span(0, -1, "oracle.engine.estimate.miss", func() { _, err = eng.Estimate(local[r.u], local[r.v]) }))
		if err != nil {
			rp.fail("cache-off estimate: %v", err)
		}
	}
	rp.m["shard.route_self_us"] = medianDur(viaFleet, time.Microsecond) - medianDur(viaEngine, time.Microsecond)
	return nil
}

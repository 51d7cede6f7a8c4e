package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"rings/internal/churn"
	"rings/internal/oracle"
	"rings/internal/telemetry"
)

// errStaleReplica reports that a replica answered from a different era
// (snapshot version) than the one the caller routed against. It never
// leaves the fleet: the query loop remaps and retries, and the final
// attempt answers from the mapped snapshot directly.
var errStaleReplica = errors.New("shard: replica answered a stale era")

// Breaker states (the values are the rings_fleet_breaker_state gauge
// encoding).
const (
	brkClosed int32 = iota
	brkOpen
	brkHalfOpen
)

func brkName(state int32) string {
	switch state {
	case brkOpen:
		return "open"
	case brkHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// breakerConfig tunes one replica's circuit breaker.
type breakerConfig struct {
	// threshold is the consecutive transport-failure count that trips
	// the breaker open.
	threshold int32
	// backoff is the first open-state retry delay; it doubles per failed
	// probe up to maxBackoff, with ±25% jitter.
	backoff    time.Duration
	maxBackoff time.Duration
}

// breaker is a per-replica circuit breaker. Queries consult only the
// closed/not-closed bit; the open → half-open → closed walk is owned by
// the fleet's prober (a successful probe must resync before the replica
// rejoins the candidate set, so a query never closes a breaker).
type breaker struct {
	cfg     breakerConfig
	state   atomic.Int32
	fails   atomic.Int32 // consecutive transport failures
	exp     atomic.Int32 // backoff doubling exponent
	retryAt atomic.Int64 // unix nanos of the next allowed probe
	opens   atomic.Int64 // cumulative closed->open transitions
	// gen counts closes. A failure is charged only to the generation it
	// was observed in (replicaSet.fail), so an attempt that hit a dead
	// replica before its restart cannot reopen the breaker the prober
	// has closed since.
	gen atomic.Int64
}

// available reports whether queries may use the replica.
func (b *breaker) available() bool { return b.state.Load() == brkClosed }

// onSuccess resets the consecutive-failure count (closed state only;
// the prober owns recovery transitions).
func (b *breaker) onSuccess() { b.fails.Store(0) }

// onFailure counts one transport failure and reports whether this
// failure tripped the breaker closed -> open.
func (b *breaker) onFailure(now int64, jitter uint64) bool {
	f := b.fails.Add(1)
	if f >= b.cfg.threshold && b.state.CompareAndSwap(brkClosed, brkOpen) {
		b.opens.Add(1)
		b.scheduleRetry(now, jitter)
		return true
	}
	return false
}

// trip forces the breaker open (admin kill switch); reports whether it
// was closed before.
func (b *breaker) trip(now int64, jitter uint64) bool {
	was := b.state.Swap(brkOpen)
	if was != brkOpen {
		b.opens.Add(1)
		b.scheduleRetry(now, jitter)
	}
	return was == brkClosed
}

// reopen returns a failed probe to the open state with a longer
// backoff.
func (b *breaker) reopen(now int64, jitter uint64) {
	b.state.Store(brkOpen)
	b.scheduleRetry(now, jitter)
}

// close restores service after a successful probe + resync.
func (b *breaker) close() {
	b.gen.Add(1)
	b.fails.Store(0)
	b.state.Store(brkClosed)
	b.exp.Store(0)
}

// scheduleRetry sets the next probe time: exponential backoff with
// ±25% jitter so a fleet of breakers tripped together does not probe in
// lockstep.
func (b *breaker) scheduleRetry(now int64, jitter uint64) {
	exp := b.exp.Add(1)
	d := b.cfg.backoff << uint(exp-1)
	if d <= 0 || d > b.cfg.maxBackoff {
		d = b.cfg.maxBackoff
	}
	// Map jitter into [0.75, 1.25).
	d = time.Duration(float64(d) * (0.75 + 0.5*unit(jitter)))
	b.retryAt.Store(now + int64(d))
}

// gate is the admin kill switch in front of every replica backend:
// while down, every call fails as ErrUnavailable without reaching the
// transport — exactly what a crashed process looks like to the fleet.
// KillReplica/RestartReplica and the chaos harnesses flip it.
type gate struct {
	inner Backend
	down  atomic.Bool
}

func (g *gate) check() error {
	if g.down.Load() {
		return fmt.Errorf("shard: replica is administratively down: %w", ErrUnavailable)
	}
	return nil
}

func (g *gate) Estimate(u, v int) (oracle.EstimateResult, error) {
	if err := g.check(); err != nil {
		return oracle.EstimateResult{}, err
	}
	return g.inner.Estimate(u, v)
}

func (g *gate) EstimateBatch(pairs []oracle.Pair) ([]oracle.EstimateResult, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.inner.EstimateBatch(pairs)
}

func (g *gate) Nearest(target int) (oracle.NearestResult, error) {
	if err := g.check(); err != nil {
		return oracle.NearestResult{}, err
	}
	return g.inner.Nearest(target)
}

func (g *gate) Route(src, dst int) (oracle.RouteResult, error) {
	if err := g.check(); err != nil {
		return oracle.RouteResult{}, err
	}
	return g.inner.Route(src, dst)
}

func (g *gate) Apply(ops []churn.Op) (ApplyResult, error) {
	if err := g.check(); err != nil {
		return ApplyResult{}, err
	}
	return g.inner.Apply(ops)
}

func (g *gate) Ship(data []byte) (int64, error) {
	if err := g.check(); err != nil {
		return 0, err
	}
	return g.inner.Ship(data)
}

func (g *gate) Stats() (oracle.EngineStats, error) {
	if err := g.check(); err != nil {
		return oracle.EngineStats{}, err
	}
	return g.inner.Stats()
}

func (g *gate) Health() (BackendHealth, error) {
	if err := g.check(); err != nil {
		return BackendHealth{}, err
	}
	return g.inner.Health()
}

func (g *gate) Close() error { return g.inner.Close() }

// repVersions pins a replica to an era: era is the authoritative shard
// snapshot version the replica's state corresponds to, engine is the
// replica engine's own install version for that state (restored copies
// count installs independently).
type repVersions struct {
	era    int64
	engine int64
}

// replica is one serving endpoint of a shard: a Backend behind the
// admin gate, its era pin, and its breaker.
type replica struct {
	shard, idx int
	b          Backend // gate -> (transport) -> backend
	gate       *gate
	vers       atomic.Pointer[repVersions]
	brk        breaker
	stateG     *telemetry.Gauge // rings_fleet_breaker_state child
}

func (r *replica) setState(state int32) {
	r.stateG.Set(float64(state))
}

// replicaSet is one shard's replica roster plus the read machinery:
// rotation and failover, on the caller's goroutine.
type replicaSet struct {
	reps      []*replica
	cursor    atomic.Int64  // rotates the first candidate for load spread
	jstate    atomic.Uint64 // jitter stream state (splitmix64 counter)
	m         *fleetMetrics
	epochBump func() // fleet epoch advance (roster changed)
}

func newReplicaSet(f *Fleet, reps []*replica) *replicaSet {
	rs := &replicaSet{
		reps:      reps,
		m:         f.metrics,
		epochBump: func() { f.AdvanceEpoch() },
	}
	rs.jstate.Store(uint64(time.Now().UnixNano()))
	return rs
}

// nextJitter draws one value from the set's jitter stream.
func (rs *replicaSet) nextJitter() uint64 { return splitmix64(rs.jstate.Add(0x9e3779b97f4a7c15)) }

// fail records one transport failure against a replica, observed by a
// call that read the breaker generation gen before it started, tripping
// the breaker (and bumping the fleet epoch) when the threshold is
// crossed. A failure from before the breaker last closed is dropped.
func (rs *replicaSet) fail(rep *replica, gen int64) {
	if gen != rep.brk.gen.Load() {
		return
	}
	if rep.brk.onFailure(time.Now().UnixNano(), rs.nextJitter()) {
		rs.m.breakerOpens.Inc()
		rep.setState(brkOpen)
		rs.epochBump()
	}
}

func (rs *replicaSet) ok(rep *replica) { rep.brk.onSuccess() }

// rsTry runs one attempt against one replica: a transport failure
// feeds the breaker, a success resets its failure count, and an answer
// from the wrong era (or a version the fleet didn't record for that
// era) is reported as errStaleReplica.
func rsTry[T any](rs *replicaSet, rep *replica, want int64, fn func(Backend) (T, int64, error)) (T, error) {
	var zero T
	gen := rep.brk.gen.Load()
	res, ver, err := fn(rep.b)
	if err != nil {
		if IsUnavailable(err) {
			rs.fail(rep, gen)
		}
		return zero, err
	}
	rs.ok(rep)
	v := rep.vers.Load()
	if v == nil || v.era != want || ver != v.engine {
		return zero, errStaleReplica
	}
	return res, nil
}

// rsCall answers one query from the replica set, inline on the
// caller's goroutine: the replicas are walked in rotated order, the
// ones whose breaker is not closed skipped in place, failing over past
// transport failures. A replica behind a transport that stalls is
// waited out until the transport's own timeout turns the stall into a
// failure, and the walk then fails over like any other. A client error
// returns immediately; when every candidate transport-fails the shard
// is down (ErrShardDown, no silent local fallback); a stale-era answer
// with no healthy alternative surfaces as errStaleReplica for the
// caller's remap loop.
//
// A walk reads each breaker at its own instant, so one that passed over
// a replica can find every replica unavailable although at every instant
// one was serving (a replica closes again while the read is failing on
// its twin, killed just after): the shard is declared down only when a
// second walk agrees.
func rsCall[T any](rs *replicaSet, want int64, fn func(Backend) (T, int64, error)) (T, error) {
	res, skipped, err := rsWalk(rs, want, fn)
	if skipped && errors.Is(err, ErrShardDown) {
		res, _, err = rsWalk(rs, want, fn)
	}
	return res, err
}

// rsWalk is one pass of rsCall over the roster; skipped reports that it
// passed over a replica whose breaker was not closed.
func rsWalk[T any](rs *replicaSet, want int64, fn func(Backend) (T, int64, error)) (_ T, skipped bool, _ error) {
	var zero T
	// The rotation spreads read load across healthy replicas.
	first := int(uint64(rs.cursor.Add(1)) % uint64(len(rs.reps)))
	var lastErr error
	sawStale, failedOver := false, false
	for i := range rs.reps {
		rep := rs.reps[(first+i)%len(rs.reps)]
		if !rep.brk.available() {
			skipped = true
			continue
		}
		if failedOver {
			rs.m.failovers.Inc()
			failedOver = false
		}
		res, err := rsTry(rs, rep, want, fn)
		switch {
		case err == nil:
			return res, skipped, nil
		case errors.Is(err, errStaleReplica):
			sawStale = true
		case !IsUnavailable(err):
			return zero, skipped, err
		default:
			lastErr, failedOver = err, true
		}
	}
	if sawStale {
		return zero, skipped, errStaleReplica
	}
	return zero, skipped, shardDown(lastErr)
}

// shardDown is ErrShardDown with the last replica's failure as detail
// (nil when every breaker was open and nothing was tried). The sentinel
// says "shard:" for the whole message; the failure's own prefixes go.
func shardDown(last error) error {
	if last == nil {
		return ErrShardDown
	}
	return fmt.Errorf("%w: %s", ErrShardDown, strings.ReplaceAll(last.Error(), "shard: ", ""))
}

// splitmix64 is the finalizer feeding breaker jitter (the same mixer
// the simnet fault plan uses; duplicated to keep the dependency
// one-way).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a 64-bit hash onto [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

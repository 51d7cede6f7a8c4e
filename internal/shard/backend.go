package shard

import (
	"bytes"
	"errors"
	"fmt"

	"rings/internal/churn"
	"rings/internal/metric"
	"rings/internal/oracle"
)

// ErrUnavailable classifies transport-level failures: the backend did
// not answer (connection refused, timeout, dropped message, 5xx, kill
// switch). It is the only error class that trips circuit breakers and
// triggers failover — client errors (ErrNodeRange, ErrCrossShard, …)
// pass through untouched and never mark a replica unhealthy.
var ErrUnavailable = errors.New("shard: backend unavailable")

// ErrUnsupported marks a Backend capability the implementation was built
// without (e.g. Apply on a backend with no churn mutator). Callers probe
// with errors.Is and degrade gracefully.
var ErrUnsupported = errors.New("shard: operation unsupported by this backend")

// ErrShardDown reports that every replica of a shard is unavailable:
// the query was not answered. Servers map it to 503.
var ErrShardDown = errors.New("shard: all replicas unavailable")

// IsUnavailable reports whether err is transport-class (breaker and
// failover relevant).
func IsUnavailable(err error) bool { return errors.Is(err, ErrUnavailable) }

// BackendHealth is a backend's liveness self-report.
type BackendHealth struct {
	// Version is the snapshot version the backend's engine serves.
	Version int64 `json:"version"`
	// N is the node count of the served snapshot.
	N int `json:"n"`
}

// ApplyResult reports one committed mutation batch on a backend.
type ApplyResult struct {
	// Version is the engine version of the post-commit snapshot.
	Version int64 `json:"version"`
	// N is the post-commit node count.
	N int `json:"n"`
	// Perm is the post-commit membership (base ids in local order).
	Perm []int32 `json:"perm,omitempty"`
	// Repair is the label-repair accounting of the commit.
	Repair churn.OpStats `json:"repair"`
}

// Backend is one shard endpoint as the fleet sees it: the query
// surface in shard-local ids, the mutation path, snapshot shipping for
// replication, and health. Implementations: the in-process engine
// (newLocalBackend) and a simnet endpoint behind injectable faults
// (SimTransport) — both satisfy one conformance suite
// (backendtest.Run).
//
// Transport failures must be reported as ErrUnavailable (wrapped);
// everything else is treated as a client error and returned to the
// caller unchanged.
type Backend interface {
	// Estimate answers one distance estimate for local ids u, v.
	Estimate(u, v int) (oracle.EstimateResult, error)
	// EstimateBatch answers many local pairs in one call.
	EstimateBatch(pairs []oracle.Pair) ([]oracle.EstimateResult, error)
	// Nearest answers one nearest-member climb for a local target.
	Nearest(target int) (oracle.NearestResult, error)
	// Route simulates one packet between local endpoints.
	Route(src, dst int) (oracle.RouteResult, error)
	// Apply commits a mutation batch (ErrUnsupported without a mutator).
	Apply(ops []churn.Op) (ApplyResult, error)
	// Ship installs a serialized v2 snapshot (Snapshot.WriteTo bytes) as
	// the backend's new serving state and returns the engine version it
	// was installed under (ErrUnsupported without a space resolver).
	Ship(data []byte) (int64, error)
	// Stats returns the backend engine's self-report.
	Stats() (oracle.EngineStats, error)
	// Health probes liveness cheaply.
	Health() (BackendHealth, error)
	// Close releases transport resources (no-op for in-process backends).
	Close() error
}

// localBackend is the in-process implementation: a direct veneer over
// an oracle.Engine (and optionally its churn mutator). The zero
// transport: never unavailable, byte-identical to the engine because it
// is the engine.
type localBackend struct {
	eng  *oracle.Engine
	mut  *churn.Mutator
	name string
	// spaceOf resolves the metric space of a shipped snapshot from its
	// membership header; nil disables Ship (static standalone use).
	spaceOf func(perm []int32, n int) (metric.Space, error)
}

// newLocalBackend wraps an engine (and optional mutator) as a Backend.
// spaceOf enables Ship; pass nil for backends that never receive
// shipped snapshots.
func newLocalBackend(eng *oracle.Engine, mut *churn.Mutator, name string,
	spaceOf func(perm []int32, n int) (metric.Space, error)) *localBackend {
	return &localBackend{eng: eng, mut: mut, name: name, spaceOf: spaceOf}
}

// NewLocalBackend is the exported constructor of the in-process
// backend: a direct veneer over an engine, optionally with its churn
// mutator (enables Apply) and a space resolver (enables Ship — the
// resolver maps a shipped snapshot's membership header to its metric
// space).
func NewLocalBackend(eng *oracle.Engine, mut *churn.Mutator, name string,
	spaceOf func(perm []int32, n int) (metric.Space, error)) Backend {
	return newLocalBackend(eng, mut, name, spaceOf)
}

func (b *localBackend) Estimate(u, v int) (oracle.EstimateResult, error) {
	return b.eng.Estimate(u, v)
}

func (b *localBackend) EstimateBatch(pairs []oracle.Pair) ([]oracle.EstimateResult, error) {
	return b.eng.EstimateBatch(pairs)
}

func (b *localBackend) Nearest(target int) (oracle.NearestResult, error) {
	return b.eng.Nearest(target)
}

func (b *localBackend) Route(src, dst int) (oracle.RouteResult, error) {
	return b.eng.Route(src, dst)
}

func (b *localBackend) Apply(ops []churn.Op) (ApplyResult, error) {
	if b.mut == nil {
		return ApplyResult{}, fmt.Errorf("shard: backend has no mutator: %w", ErrUnsupported)
	}
	snap, err := b.mut.Apply(ops...)
	if err != nil {
		return ApplyResult{}, err
	}
	b.eng.Swap(snap)
	return ApplyResult{
		Version: snap.Version,
		N:       snap.N(),
		Perm:    snap.Perm,
		Repair:  b.mut.Stats().Last,
	}, nil
}

func (b *localBackend) Ship(data []byte) (int64, error) {
	if b.spaceOf == nil {
		return 0, fmt.Errorf("shard: backend has no space resolver: %w", ErrUnsupported)
	}
	snap, err := oracle.ReadSnapshotFor(bytes.NewReader(data), b.name, b.spaceOf)
	if err == nil {
		// A shipped snapshot is a commit on this replica: it gets its router
		// before the swap only if the one it replaces was routed on.
		err = snap.InheritRouter(b.eng.Snapshot())
	}
	if err != nil {
		return 0, err
	}
	b.eng.Swap(snap)
	return snap.Version, nil
}

func (b *localBackend) Stats() (oracle.EngineStats, error) {
	return b.eng.Stats(), nil
}

func (b *localBackend) Health() (BackendHealth, error) {
	snap := b.eng.Snapshot()
	return BackendHealth{Version: snap.Version, N: snap.N()}, nil
}

func (b *localBackend) Close() error { return nil }

// snapshot exposes the served snapshot to the fleet (resync source).
func (b *localBackend) snapshot() *oracle.Snapshot { return b.eng.Snapshot() }

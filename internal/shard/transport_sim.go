package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/churn"
	"rings/internal/oracle"
	"rings/internal/simnet"
)

// SimTransport runs shard backends as simnet endpoints: every wrapped
// backend becomes one server node reached by request/reply messages,
// and a FaultPlan on the underlying network injects per-link drops,
// delays and partitions — deterministically under a seed. Requests
// enter as simnet injections (link from=-1 → server); replies travel
// the server→client link. A lost message in either direction surfaces
// to the caller as a timeout wrapped in ErrUnavailable, exactly like a
// lossy datagram network.
type SimTransport struct {
	net     *simnet.Network
	servers []atomic.Value // Backend per server node
	client  int            // reply sink node id
	timeout time.Duration
	nextID  atomic.Int64
	pending sync.Map // call id -> chan simReply
	closed  atomic.Bool
}

// simCall is one request envelope.
type simCall struct {
	id  int64
	req any
}

// simReply carries a call's result (in-process simulation: the error
// value crosses verbatim, preserving errors.Is classes).
type simReply struct {
	id  int64
	res any
	err error
}

// Request payloads, one per Backend method.
type (
	simEstimate struct{ u, v int }
	simBatch    struct{ pairs []oracle.Pair }
	simNearest  struct{ target int }
	simRoute    struct{ src, dst int }
	simApply    struct{ ops []churn.Op }
	simShip     struct{ data []byte }
	simStats    struct{}
	simHealth   struct{}
)

// NewSimTransport creates a transport with capacity for the given
// number of server endpoints. Calls time out (→ ErrUnavailable) after
// timeout — the only way a fault schedule's losses become visible.
func NewSimTransport(endpoints int, timeout time.Duration) (*SimTransport, error) {
	if endpoints < 1 {
		return nil, fmt.Errorf("shard: simnet transport needs at least one endpoint")
	}
	if timeout <= 0 {
		timeout = 200 * time.Millisecond
	}
	t := &SimTransport{
		servers: make([]atomic.Value, endpoints),
		client:  endpoints,
		timeout: timeout,
	}
	net, err := simnet.New(endpoints+1, t.handle)
	if err != nil {
		return nil, err
	}
	t.net = net
	return t, nil
}

// SetFaults installs the fault plan on the underlying network.
func (t *SimTransport) SetFaults(p *simnet.FaultPlan) { t.net.SetFaults(p) }

// Network exposes the underlying simnet (for Quiesce in tests).
func (t *SimTransport) Network() *simnet.Network { return t.net }

// Wrap registers inner as server node, returning the Backend whose
// calls cross the simulated network. Safe to call concurrently for
// distinct nodes (fleet shard builds run in parallel).
func (t *SimTransport) Wrap(node int, inner Backend) Backend {
	if node < 0 || node >= len(t.servers) {
		panic(fmt.Sprintf("shard: simnet transport node %d out of range [0, %d)", node, len(t.servers)))
	}
	t.servers[node].Store(&inner)
	return &simBackend{t: t, node: node}
}

// Close shuts the network down; in-flight calls time out.
func (t *SimTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.net.Shutdown()
	return nil
}

// handle is the node handler: server nodes answer requests against
// their registered backend; the client node completes pending calls.
func (t *SimTransport) handle(ctx *simnet.Context, msg simnet.Message) {
	if ctx.Node == t.client {
		reply, ok := msg.Payload.(simReply)
		if !ok {
			return
		}
		if ch, ok := t.pending.Load(reply.id); ok {
			select {
			case ch.(chan simReply) <- reply:
			default: // caller already timed out
			}
		}
		return
	}
	call, ok := msg.Payload.(simCall)
	if !ok {
		return
	}
	var inner Backend
	if p, _ := t.servers[ctx.Node].Load().(*Backend); p != nil {
		inner = *p
	}
	reply := simReply{id: call.id}
	if inner == nil {
		reply.err = fmt.Errorf("shard: simnet node %d has no backend: %w", ctx.Node, ErrUnavailable)
	} else {
		reply.res, reply.err = dispatch(inner, call.req)
	}
	// A shutdown racing the reply just drops it; the caller times out.
	_ = ctx.Send(t.client, reply)
}

// dispatch invokes one Backend method for a request payload.
func dispatch(b Backend, req any) (any, error) {
	switch r := req.(type) {
	case simEstimate:
		return b.Estimate(r.u, r.v)
	case simBatch:
		return b.EstimateBatch(r.pairs)
	case simNearest:
		return b.Nearest(r.target)
	case simRoute:
		return b.Route(r.src, r.dst)
	case simApply:
		return b.Apply(r.ops)
	case simShip:
		return b.Ship(r.data)
	case simStats:
		return b.Stats()
	case simHealth:
		return b.Health()
	default:
		return nil, fmt.Errorf("shard: simnet transport: unknown request %T", req)
	}
}

// call runs one request/reply round trip with a timeout.
func (t *SimTransport) call(node int, req any) (any, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("shard: simnet transport closed: %w", ErrUnavailable)
	}
	id := t.nextID.Add(1)
	ch := make(chan simReply, 1)
	t.pending.Store(id, ch)
	defer t.pending.Delete(id)
	if err := t.net.Inject(node, simCall{id: id, req: req}); err != nil {
		return nil, fmt.Errorf("shard: simnet send: %v: %w", err, ErrUnavailable)
	}
	timer := time.NewTimer(t.timeout)
	defer timer.Stop()
	select {
	case reply := <-ch:
		return reply.res, reply.err
	case <-timer.C:
		return nil, fmt.Errorf("shard: simnet call to node %d timed out after %v: %w",
			node, t.timeout, ErrUnavailable)
	}
}

// simBackend is the client stub for one server node.
type simBackend struct {
	t    *SimTransport
	node int
}

// Remote marks the backend as crossing a (simulated) network: its
// shard's reads are hedged.
func (b *simBackend) Remote() bool { return true }

func simCallAs[T any](b *simBackend, req any) (T, error) {
	res, err := b.t.call(b.node, req)
	if err != nil {
		var zero T
		return zero, err
	}
	out, ok := res.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("shard: simnet transport: %T reply for %T request", res, req)
	}
	return out, nil
}

func (b *simBackend) Estimate(u, v int) (oracle.EstimateResult, error) {
	return simCallAs[oracle.EstimateResult](b, simEstimate{u, v})
}

func (b *simBackend) EstimateBatch(pairs []oracle.Pair) ([]oracle.EstimateResult, error) {
	return simCallAs[[]oracle.EstimateResult](b, simBatch{pairs})
}

func (b *simBackend) Nearest(target int) (oracle.NearestResult, error) {
	return simCallAs[oracle.NearestResult](b, simNearest{target})
}

func (b *simBackend) Route(src, dst int) (oracle.RouteResult, error) {
	return simCallAs[oracle.RouteResult](b, simRoute{src, dst})
}

func (b *simBackend) Apply(ops []churn.Op) (ApplyResult, error) {
	return simCallAs[ApplyResult](b, simApply{ops})
}

func (b *simBackend) Ship(data []byte) (int64, error) {
	return simCallAs[int64](b, simShip{data})
}

func (b *simBackend) Stats() (oracle.EngineStats, error) {
	return simCallAs[oracle.EngineStats](b, simStats{})
}

func (b *simBackend) Health() (BackendHealth, error) {
	return simCallAs[BackendHealth](b, simHealth{})
}

func (b *simBackend) Close() error { return nil }

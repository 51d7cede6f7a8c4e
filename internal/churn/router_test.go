package churn

import (
	"testing"

	"rings/internal/oracle"
	"rings/internal/telemetry"
)

// routerBuilds reads rings_oracle_router_builds_total, all causes summed.
func routerBuilds() int64 {
	f := telemetry.Default.CounterFamily("rings_oracle_router_builds_total", "", "cause")
	return f.With("commit").Value() + f.With("request").Value()
}

// TestCommitInheritsRoutingDemand pins who builds a commit's router.
// Nobody, while nobody routes: the initial state and two commits build
// none. Then a route on the served snapshot builds that one on request,
// and from there every commit has its router ready when Apply returns —
// before any swap, with no request having built it — and says so in its
// BuildStats, which a request-time build never touches.
func TestCommitInheritsRoutingDemand(t *testing.T) {
	before := routerBuilds()
	m, err := NewMutator(Config{Oracle: oracle.Config{Workload: "latency", N: 40, Seed: 3, MemberStride: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ops := traceFor(t, m, 5, 11)
	snaps := []*oracle.Snapshot{m.Snapshot()}
	for _, op := range ops[:2] {
		snap, err := m.Apply(op)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	for i, snap := range snaps {
		if !snap.Routable() || snap.Routed() || snap.Build.RouterSec != 0 {
			t.Fatalf("commit %d with no route asked: routable=%v routed=%v router_sec=%v",
				i, snap.Routable(), snap.Routed(), snap.Build.RouterSec)
		}
	}
	if got := routerBuilds() - before; got != 0 {
		t.Fatalf("%d routers built with no route asked", got)
	}

	served := m.Snapshot()
	if _, err := served.Route(0, served.N()-1); err != nil {
		t.Fatal(err)
	}
	if !served.Routed() || served.Build.RouterSec != 0 {
		t.Fatalf("after a route: routed=%v, router_sec=%v (a served snapshot's BuildStats are not rewritten)",
			served.Routed(), served.Build.RouterSec)
	}
	for i, op := range ops[2:] {
		snap, err := m.Apply(op)
		if err != nil {
			t.Fatal(err)
		}
		b := snap.Build
		if !snap.Routed() || b.RouterSec <= 0 {
			t.Fatalf("commit %d after a route: routed=%v router_sec=%v, want the router built before the swap",
				i, snap.Routed(), b.RouterSec)
		}
		// The commit is serial, so its phases — pack and inherited router
		// included — sum to no more than its total.
		sum := b.IndexSec + b.NetsSec + b.RadiiSec + b.PackingsSec + b.RingsSec + b.TriangulationSec +
			b.ZSetsSec + b.TSetsSec + b.LabelFillSec + b.OverlaySec + b.RouterSec + b.PackSec
		if b.PackSec <= 0 || sum > b.TotalSec+1e-9 {
			t.Fatalf("commit %d: pack %v s, phases sum to %v s, total %v s", i, b.PackSec, sum, b.TotalSec)
		}
	}
	if got := routerBuilds() - before; got != int64(1+len(ops[2:])) {
		t.Fatalf("%d routers built, want one on request and one per commit after it", got)
	}
}

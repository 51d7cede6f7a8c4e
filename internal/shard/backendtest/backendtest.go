// Package backendtest is the shared conformance suite every
// shard.Backend implementation must pass. It has two legs, the
// in-process backend and the simnet transport, and both run the same
// checks. The gold standard is byte-identity — a
// conforming backend returns bit-for-bit the answers of the reference
// snapshot it serves — plus faithful error classes, because failover
// correctness rests on ErrNodeRange (client input) never being
// mistaken for ErrUnavailable (transport) and vice versa.
package backendtest

import (
	"errors"
	"math"
	"testing"

	"rings/internal/oracle"
	"rings/internal/shard"
)

// Harness describes one backend under test.
type Harness struct {
	// Backend is the implementation under test.
	Backend shard.Backend
	// Ref is the snapshot the backend serves, used as ground truth for
	// byte-identity (versions are compared within the backend, not
	// against Ref: engines assign their own install versions).
	Ref *oracle.Snapshot
	// Ship is a serialized v2 snapshot (WriteTo bytes) the suite
	// installs via Backend.Ship; ShipRef is its ground truth.
	Ship    []byte
	ShipRef *oracle.Snapshot
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// Run exercises the full Backend surface against the harness.
func Run(t *testing.T, h Harness) {
	t.Helper()
	b, ref := h.Backend, h.Ref
	n := ref.N()
	if n < 4 {
		t.Fatalf("conformance needs a reference of at least 4 nodes, got %d", n)
	}

	health, err := b.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if health.N != n {
		t.Fatalf("Health.N = %d, reference has %d", health.N, n)
	}
	if health.Version < 1 {
		t.Fatalf("Health.Version = %d, want >= 1 (engines install at version 1)", health.Version)
	}

	// Single estimates: every answer bit-identical to the reference.
	pairs := [][2]int{{0, n - 1}, {1, 2}, {n / 2, n/2 + 1}, {3, 3}}
	for _, p := range pairs {
		got, err := b.Estimate(p[0], p[1])
		if err != nil {
			t.Fatalf("Estimate(%d,%d): %v", p[0], p[1], err)
		}
		want, err := ref.Estimate(p[0], p[1])
		if err != nil {
			t.Fatalf("ref Estimate(%d,%d): %v", p[0], p[1], err)
		}
		if !bitsEqual(got.Lower, want.Lower) || !bitsEqual(got.Upper, want.Upper) || got.OK != want.OK {
			t.Fatalf("Estimate(%d,%d) = (%v,%v,%v), reference (%v,%v,%v) — not byte-identical",
				p[0], p[1], got.Lower, got.Upper, got.OK, want.Lower, want.Upper, want.OK)
		}
		if got.Version != health.Version {
			t.Fatalf("Estimate(%d,%d) answered version %d, backend serves %d",
				p[0], p[1], got.Version, health.Version)
		}
	}

	// Batch: same pairs in one call, same bytes out.
	batch := make([]oracle.Pair, len(pairs))
	for i, p := range pairs {
		batch[i] = oracle.Pair{U: p[0], V: p[1]}
	}
	results, err := b.EstimateBatch(batch)
	if err != nil {
		t.Fatalf("EstimateBatch: %v", err)
	}
	if len(results) != len(batch) {
		t.Fatalf("EstimateBatch returned %d results for %d pairs", len(results), len(batch))
	}
	for i, res := range results {
		want, _ := ref.Estimate(batch[i].U, batch[i].V)
		if !bitsEqual(res.Lower, want.Lower) || !bitsEqual(res.Upper, want.Upper) {
			t.Fatalf("batch pair %d = (%v,%v), reference (%v,%v)", i, res.Lower, res.Upper, want.Lower, want.Upper)
		}
	}

	// Nearest and Route follow the snapshot's capabilities: identical
	// answers when the artifact exists, the artifact's own error class
	// when disabled.
	if ref.Overlay != nil {
		got, err := b.Nearest(n / 2)
		if err != nil {
			t.Fatalf("Nearest(%d): %v", n/2, err)
		}
		want, err := ref.Nearest(n / 2)
		if err != nil {
			t.Fatalf("ref Nearest: %v", err)
		}
		if got.Member != want.Member || !bitsEqual(got.Dist, want.Dist) || got.Hops != want.Hops {
			t.Fatalf("Nearest(%d) = (%d,%v,%d hops), reference (%d,%v,%d hops)",
				n/2, got.Member, got.Dist, got.Hops, want.Member, want.Dist, want.Hops)
		}
	} else if _, err := b.Nearest(0); !errors.Is(err, oracle.ErrNoOverlay) {
		t.Fatalf("Nearest without overlay: err = %v, want ErrNoOverlay", err)
	}
	if ref.Routable() {
		got, err := b.Route(0, n-1)
		if err != nil {
			t.Fatalf("Route(0,%d): %v", n-1, err)
		}
		want, err := ref.Route(0, n-1)
		if err != nil {
			t.Fatalf("ref Route: %v", err)
		}
		if !bitsEqual(got.Length, want.Length) || got.Hops != want.Hops || len(got.Path) != len(want.Path) {
			t.Fatalf("Route(0,%d) = (len %v, %d hops, path %d), reference (len %v, %d hops, path %d)",
				n-1, got.Length, got.Hops, len(got.Path), want.Length, want.Hops, len(want.Path))
		}
		for i := range got.Path {
			if got.Path[i] != want.Path[i] {
				t.Fatalf("Route path[%d] = %d, reference %d", i, got.Path[i], want.Path[i])
			}
		}
	} else if _, err := b.Route(0, n-1); !errors.Is(err, oracle.ErrNoRouter) {
		t.Fatalf("Route without router: err = %v, want ErrNoRouter", err)
	}

	// Error classes: out-of-range ids are client errors — never
	// transport errors.
	for _, bad := range [][2]int{{-1, 0}, {0, n}, {n + 7, 1}} {
		_, err := b.Estimate(bad[0], bad[1])
		if !errors.Is(err, oracle.ErrNodeRange) {
			t.Fatalf("Estimate(%d,%d): err = %v, want ErrNodeRange", bad[0], bad[1], err)
		}
		if shard.IsUnavailable(err) {
			t.Fatalf("Estimate(%d,%d): client error classified as unavailable: %v", bad[0], bad[1], err)
		}
	}

	// Stats agree with health on the served version.
	stats, err := b.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Version != health.Version {
		t.Fatalf("Stats.Version = %d, Health.Version = %d", stats.Version, health.Version)
	}

	// Ship: installing a serialized snapshot bumps the engine version
	// and serves the shipped bytes, bit-identical.
	newVer, err := b.Ship(h.Ship)
	if err != nil {
		t.Fatalf("Ship: %v", err)
	}
	if newVer <= health.Version {
		t.Fatalf("Ship installed version %d, want > %d", newVer, health.Version)
	}
	sh, err := b.Health()
	if err != nil {
		t.Fatalf("Health after Ship: %v", err)
	}
	if sh.Version != newVer || sh.N != h.ShipRef.N() {
		t.Fatalf("after Ship: health (v%d, n=%d), want (v%d, n=%d)",
			sh.Version, sh.N, newVer, h.ShipRef.N())
	}
	m := h.ShipRef.N()
	got, err := b.Estimate(0, m-1)
	if err != nil {
		t.Fatalf("Estimate after Ship: %v", err)
	}
	want, err := h.ShipRef.Estimate(0, m-1)
	if err != nil {
		t.Fatalf("ship-ref Estimate: %v", err)
	}
	if !bitsEqual(got.Lower, want.Lower) || !bitsEqual(got.Upper, want.Upper) {
		t.Fatalf("post-Ship Estimate = (%v,%v), shipped reference (%v,%v) — shipping broke byte-identity",
			got.Lower, got.Upper, want.Lower, want.Upper)
	}
}

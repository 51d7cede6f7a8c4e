package objects_test

import (
	"testing"

	"rings/internal/objects"
	"rings/internal/oracle"
)

// TestLookupSteadyStateAllocs is the runtime backstop on the lookup
// serving path. A steady-state Lookup is not allocation-free — the
// overlay's NearestMember/MultiRange return candidate slices — but its
// cost must stay a small constant: a handful of short-lived slices per
// query, independent of universe size. The ceiling here is ~3x the
// measured steady state, so an accidental per-node or per-replica
// allocation (which scales with N) trips it immediately.
func TestLookupSteadyStateAllocs(t *testing.T) {
	snap, err := oracle.BuildSnapshot(oracle.Config{
		Workload: "latency", N: 60, Seed: 3, MemberStride: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := objects.New(snap, objects.Config{Seed: 7})
	for _, node := range []int{2, 17, 33, 48} {
		if _, err := d.Publish("obj", node); err != nil {
			t.Fatal(err)
		}
	}
	// Warm once: first lookups may fault lazy state.
	if _, err := d.Lookup("obj", 11); err != nil {
		t.Fatal(err)
	}
	from := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Lookup("obj", from); err != nil {
			panic(err)
		}
		from = (from + 7) % snap.N()
	})
	const ceiling = 40
	if allocs > ceiling {
		t.Fatalf("steady-state Lookup allocated %v allocs/op, want <= %d", allocs, ceiling)
	}
	t.Logf("steady-state Lookup: %v allocs/op (ceiling %d)", allocs, ceiling)
}

package objects_test

import (
	"testing"

	"rings/internal/objects"
	"rings/internal/oracle"
)

// TestLookupSteadyStateAllocs is the runtime backstop on the lookup
// serving path: a steady-state Lookup scans the replica slice in place
// and allocates nothing, so any allocation — a copied replica set, a
// candidate slice, an escaping closure — trips it.
func TestLookupSteadyStateAllocs(t *testing.T) {
	snap, err := oracle.BuildSnapshot(oracle.Config{
		Workload: "latency", N: 60, Seed: 3, MemberStride: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := objects.New(snap, objects.Config{})
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
	if allocs != 0 {
		t.Fatalf("steady-state Lookup allocated %v allocs/op, want 0", allocs)
	}
}

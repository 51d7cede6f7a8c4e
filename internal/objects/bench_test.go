package objects_test

import (
	"fmt"
	"testing"

	"rings/internal/objects"
	"rings/internal/oracle"
)

// BenchmarkDirectory times the three directory operations ringperf's
// fleet-mixed drives, on its dataset (latency, n = 1024), at replica
// sets of 1, 4 (the most any workload holds) and 64:
//   - publish: one op publishes a replica onto the object and the next
//     takes it back off, so the set alternates between m−1 and m and
//     ns/op is the mean of a publish and an unpublish;
//   - move: one op unpublishes a replica and publishes it on a node no
//     replica holds (ringperf's move), the set staying at m;
//   - lookup: one op resolves the object from the next origin.
func BenchmarkDirectory(b *testing.B) {
	snap, err := oracle.BuildSnapshot(oracle.Config{
		Workload: "latency", N: 1024, Seed: 1, SkipOverlay: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := snap.N()
	for _, m := range []int{1, 4, 64} {
		// The m replicas sit on every (n/m)-th node; the node a publish
		// or move adds is the one after a holder, which none is.
		holders := make([]int, m)
		for i := range holders {
			holders[i] = i * (n / m)
		}
		fill := func(b *testing.B, count int) *objects.Directory {
			d := objects.New(snap, objects.Config{})
			for _, node := range holders[:count] {
				if _, err := d.Publish("obj", node); err != nil {
					b.Fatal(err)
				}
			}
			return d
		}
		b.Run(fmt.Sprintf("publish/replicas=%d", m), func(b *testing.B) {
			d := fill(b, m-1)
			node := holders[m-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if i%2 == 0 {
					_, err = d.Publish("obj", node)
				} else {
					_, err = d.Unpublish("obj", node)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("move/replicas=%d", m), func(b *testing.B) {
			d := fill(b, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % m
				from, to := holders[j], holders[j]+1
				if i/m%2 == 1 {
					from, to = to, from
				}
				if _, err := d.Unpublish("obj", from); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Publish("obj", to); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lookup/replicas=%d", m), func(b *testing.B) {
			d := fill(b, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Lookup("obj", i%n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

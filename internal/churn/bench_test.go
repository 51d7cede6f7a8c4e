package churn

import (
	"math/rand"
	"testing"

	"rings/internal/oracle"
)

// BenchmarkMutatorApply measures one join commit plus one leave commit
// on the server ringperf's churn-mixed workload runs (`ringsrv -churn`:
// latency metric, n = 512 of capacity 1024, tuned profile, δ = 0.5,
// routing on and — as there — never asked for), with bases drawn as
// ringperf draws them: a seeded random dormant base joins, a seeded
// random active one leaves. It reports the mean per-phase milliseconds
// of a commit, so the order in which to attack a commit's cost is read
// from bench.log (pair with -cpuprofile for the functions).
func BenchmarkMutatorApply(b *testing.B) {
	n := 512
	if testing.Short() {
		n = 128
	}
	m, err := NewMutator(Config{
		Oracle: oracle.Config{
			Workload: "latency", N: n, Seed: 1, Delta: 0.5,
			Scheme: oracle.SchemeLabels, Profile: oracle.ProfileTuned,
		},
		Capacity: 2 * n,
	})
	if err != nil {
		b.Fatal(err)
	}
	phases := []struct {
		name string
		sec  func(oracle.BuildStats) float64
	}{
		{"index", func(s oracle.BuildStats) float64 { return s.IndexSec }},
		{"construction", func(s oracle.BuildStats) float64 {
			return s.NetsSec + s.RadiiSec + s.PackingsSec + s.RingsSec
		}},
		{"zsets", func(s oracle.BuildStats) float64 { return s.ZSetsSec }},
		{"tsets", func(s oracle.BuildStats) float64 { return s.TSetsSec }},
		{"fill", func(s oracle.BuildStats) float64 { return s.LabelFillSec }},
		{"overlay", func(s oracle.BuildStats) float64 { return s.OverlaySec }},
		{"router", func(s oracle.BuildStats) float64 { return s.RouterSec }},
		{"pack", func(s oracle.BuildStats) float64 { return s.PackSec }},
		{"total", func(s oracle.BuildStats) float64 { return s.TotalSec }},
	}
	sums := make([]float64, len(phases))
	commit := func(op Op) {
		snap, err := m.Apply(op)
		if err != nil {
			b.Fatal(err)
		}
		for i, ph := range phases {
			sums[i] += ph.sec(snap.Build)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dormant := m.DormantBases(m.Config().Capacity)
		commit(Op{Kind: Join, Base: dormant[rng.Intn(len(dormant))]})
		commit(Op{Kind: Leave, Base: m.ActiveBase(rng.Intn(m.N()))})
	}
	for i, ph := range phases {
		b.ReportMetric(sums[i]*1e3/float64(2*b.N), ph.name+"-ms/commit")
	}
}

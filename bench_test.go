// Benchmarks: one per table and figure of the paper (see DESIGN.md §3 for
// the experiment index), plus the ablations of DESIGN.md §4. Benchmarks
// report the paper's quantities (bits, stretch, hops, order, out-degree)
// via b.ReportMetric, so `go test -bench=. -benchmem` regenerates the
// headline numbers alongside CPU/allocation costs.
package rings

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rings/internal/bitio"
	"rings/internal/core"
	"rings/internal/distlabel"
	"rings/internal/measure"
	"rings/internal/metric"
	"rings/internal/nets"
	"rings/internal/packing"
	"rings/internal/routing"
	"rings/internal/smallworld"
	"rings/internal/triangulation"
	"rings/internal/workload"
)

// fixtures are built once and shared across benchmarks.
var (
	fixOnce sync.Once
	fixErr  error

	gridGraph workload.GraphInstance
	expPath   workload.GraphInstance
	gridM     workload.MetricInstance
	lineM     workload.MetricInstance
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		if gridGraph, fixErr = workload.GridGraph(7, 1); fixErr != nil {
			return
		}
		if expPath, fixErr = workload.ExpPath(20, 8); fixErr != nil {
			return
		}
		if gridM, fixErr = workload.Grid(7); fixErr != nil {
			return
		}
		lineM, fixErr = workload.ExpLine(32, 64)
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
}

func benchRouting(b *testing.B, s routing.Scheme, d routing.Distancer) {
	b.Helper()
	st, err := routing.Evaluate(s, d, 2, 60*d.N())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(st.MaxStretch, "stretch-max")
	b.ReportMetric(float64(st.MaxTableBits), "table-bits")
	b.ReportMetric(float64(st.MaxLabelBits), "label-bits")
	b.ReportMetric(float64(st.MaxHeaderBits), "header-bits")
	rng := rand.New(rand.NewSource(1))
	n := d.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if _, err := routing.Route(s, u, v, 60*n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 covers Table 1 (routing on doubling graphs): one
// sub-benchmark per scheme per workload.
func BenchmarkTable1(b *testing.B) {
	fixtures(b)
	for _, inst := range []workload.GraphInstance{gridGraph, expPath} {
		builders := []struct {
			name  string
			build func() (routing.Scheme, error)
		}{
			{"full-table", func() (routing.Scheme, error) { return routing.NewFullTable(inst.G) }},
			{"talwar-global", func() (routing.Scheme, error) { return routing.NewThm21Global(inst.G, 0.5) }},
			{"thm2.1", func() (routing.Scheme, error) { return routing.NewThm21(inst.G, 0.5) }},
			{"thm4.1", func() (routing.Scheme, error) { return routing.NewThm41(inst.G, 0.5) }},
		}
		for _, bt := range builders {
			b.Run(inst.Name+"/"+bt.name, func(b *testing.B) {
				s, err := bt.build()
				if err != nil {
					b.Fatal(err)
				}
				benchRouting(b, s, inst.Idx)
			})
		}
	}
}

// BenchmarkTable2 covers Table 2 (routing on metrics via overlays),
// reporting the overlay out-degree.
func BenchmarkTable2(b *testing.B) {
	fixtures(b)
	for _, inst := range []workload.MetricInstance{gridM, lineM} {
		b.Run(inst.Name+"/thm2.1-metric", func(b *testing.B) {
			s, err := routing.NewThm21Metric(inst.Idx, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(s.Graph().MaxOutDegree()), "out-degree")
			benchRouting(b, s, inst.Idx)
		})
	}
}

// BenchmarkTable3 covers Table 3 (the Theorem B.1 two-mode scheme):
// M1/M2 table split on the ring-overlay workload.
func BenchmarkTable3(b *testing.B) {
	fixtures(b)
	over, err := routing.RingOverlay(gridM.Idx, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	s, err := routing.NewThmB1(over, 0.5, 0)
	if err != nil {
		b.Fatal(err)
	}
	m1, m2 := 0, 0
	for u := 0; u < over.N(); u++ {
		if v := s.M1TableBits(u); v > m1 {
			m1 = v
		}
		if v := s.M2TableBits(u); v > m2 {
			m2 = v
		}
	}
	b.ReportMetric(float64(m1), "m1-table-bits")
	b.ReportMetric(float64(m2), "m2-table-bits")
	benchRouting(b, s, gridM.Idx)
}

// BenchmarkThm32 covers E4: triangulation estimates with certificate.
func BenchmarkThm32(b *testing.B) {
	fixtures(b)
	for _, inst := range []workload.MetricInstance{gridM, lineM} {
		b.Run(inst.Name, func(b *testing.B) {
			tri, err := triangulation.New(inst.Idx, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(tri.Order()), "order")
			rng := rand.New(rand.NewSource(2))
			n := inst.Idx.N()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				tri.Estimate(u, v)
			}
		})
	}
}

// BenchmarkThm34 covers E5: label-only distance estimates.
func BenchmarkThm34(b *testing.B) {
	fixtures(b)
	scheme, err := distlabel.New(lineM.Idx, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	bits, err := scheme.MaxLabelBits()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(bits), "label-bits")
	rng := rand.New(rand.NewSource(3))
	n := lineM.Idx.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		distlabel.Estimate(scheme.Label(u), scheme.Label(v))
	}
}

func benchSmallWorld(b *testing.B, m smallworld.Model, n int) {
	b.Helper()
	st, err := smallworld.EvaluateAll(m, n, 2, 12*n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.OutDegree()), "out-degree")
	b.ReportMetric(float64(st.MaxHops), "hops-max")
	b.ReportMetric(st.MeanHops, "hops-mean")
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if _, err := smallworld.Query(m, u, v, 12*n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm52a covers E6.
func BenchmarkThm52a(b *testing.B) {
	fixtures(b)
	for _, inst := range []workload.MetricInstance{gridM, lineM} {
		b.Run(inst.Name, func(b *testing.B) {
			m, err := smallworld.NewThm52a(inst.Idx, smallworld.DefaultParams(5))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(m.PointerBudget()), "pointer-budget")
			benchSmallWorld(b, m, inst.Idx.N())
		})
	}
}

// BenchmarkThm52b covers E7.
func BenchmarkThm52b(b *testing.B) {
	fixtures(b)
	m, err := smallworld.NewThm52b(lineM.Idx, smallworld.DefaultParams(6))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.PointerBudget()), "pointer-budget")
	benchSmallWorld(b, m, lineM.Idx.N())
}

// BenchmarkThm55 covers E8 (single long-range link).
func BenchmarkThm55(b *testing.B) {
	fixtures(b)
	m, err := smallworld.NewThm55(gridGraph.G, gridGraph.Idx, 7)
	if err != nil {
		b.Fatal(err)
	}
	benchSmallWorld(b, m, gridGraph.Idx.N())
}

// BenchmarkStructures covers E9 (Kleinberg STRUCTURES baseline).
func BenchmarkStructures(b *testing.B) {
	fixtures(b)
	m, err := smallworld.NewStructures(gridM.Idx, 1, false, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchSmallWorld(b, m, gridM.Idx.N())
}

// BenchmarkSubstrates covers E10: the Section 1.1 substrate
// constructions.
func BenchmarkSubstrates(b *testing.B) {
	fixtures(b)
	idx := gridM.Idx
	b.Run("doubling-measure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := measure.Doubling(idx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nets-hierarchy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nets.NewHierarchy(idx, nets.RoutingScales(idx)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packing", func(b *testing.B) {
		smp, err := measure.NewSampler(idx, measure.Counting(idx.N()))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := packing.New(idx, smp, 1.0/8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure2 covers F2: the host-enumeration translation that
// underlies every local forwarding decision.
func BenchmarkFigure2(b *testing.B) {
	fixtures(b)
	idx := gridM.Idx
	h, err := nets.NewHierarchy(idx, nets.RoutingScales(idx))
	if err != nil {
		b.Fatal(err)
	}
	radii := make([]float64, h.NumLevels())
	for j := range radii {
		radii[j] = 4 * h.Scale(j)
	}
	rings, err := core.BuildNetRings(idx, h, radii)
	if err != nil {
		b.Fatal(err)
	}
	// Translate through one ζ_uj by Enum.IndexOf, as the router's fill
	// does; zeta-bits is the table's size at one WidthFor(|Y_(u,j+1)|+1)
	// cell per (f, w), the +1 covering the absent mark.
	u, j := 0, 1
	uj, uj1 := rings.Ring(u, j), rings.Ring(u, j+1)
	cells := 0
	for a := 0; a < uj.Size(); a++ {
		cells += rings.Ring(uj.Node(a), j+1).Size()
	}
	b.ReportMetric(float64(cells*bitio.WidthFor(uj1.Size()+1)), "zeta-bits")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fj1 := rings.Ring(uj.Node(i%uj.Size()), j+1)
		uj1.IndexOf(fj1.Node(i % 3 % fj1.Size()))
	}
}

// BenchmarkAblationDelta sweeps δ for Theorem 2.1, showing the
// (1/δ)^O(α) table growth against the stretch target (DESIGN.md §4.4).
func BenchmarkAblationDelta(b *testing.B) {
	fixtures(b)
	for _, delta := range []float64{1.0, 0.5, 0.25} {
		b.Run(fmt.Sprintf("delta=%v", delta), func(b *testing.B) {
			s, err := routing.NewThm21(gridGraph.G, delta)
			if err != nil {
				b.Fatal(err)
			}
			benchRouting(b, s, gridGraph.Idx)
		})
	}
}

// BenchmarkAblationSamplesC sweeps the small-world sampling constant
// (DESIGN.md §4.3): more samples per ring buy lower hop counts.
func BenchmarkAblationSamplesC(b *testing.B) {
	fixtures(b)
	for _, cy := range []float64{1, 3, 6} {
		b.Run(fmt.Sprintf("cy=%v", cy), func(b *testing.B) {
			p := smallworld.Params{CX: 2, CY: cy, Seed: 11}
			m, err := smallworld.NewThm52a(lineM.Idx, p)
			if err != nil {
				b.Fatal(err)
			}
			benchSmallWorld(b, m, lineM.Idx.N())
		})
	}
}

// BenchmarkAblationGlobalIDs isolates the Figure-2 effect: identical
// zooming scheme, local host-enumeration indices vs global IDs
// (DESIGN.md §4; the label-bits metrics differ, stretch matches).
func BenchmarkAblationGlobalIDs(b *testing.B) {
	fixtures(b)
	b.Run("local-ids", func(b *testing.B) {
		s, err := routing.NewThm21(expPath.G, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		benchRouting(b, s, expPath.Idx)
	})
	b.Run("global-ids", func(b *testing.B) {
		s, err := routing.NewThm21Global(expPath.G, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		benchRouting(b, s, expPath.Idx)
	})
}

// BenchmarkIndexBuild measures the shared substrate cost every
// construction pays first.
func BenchmarkIndexBuild(b *testing.B) {
	g, err := metric.NewGrid(12, 2, metric.L2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metric.NewIndex(g)
	}
}

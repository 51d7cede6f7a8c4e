package routing

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"rings/internal/graph"
	"rings/internal/metric"
)

func evaluateScheme(t *testing.T, s Scheme, d Distancer, delta float64, stride int) Stats {
	t.Helper()
	stats, err := Evaluate(s, d, stride, 50*d.N())
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if stats.MaxStretch > 1+delta+1e-6 {
		t.Fatalf("%s: max stretch %v exceeds 1+%v", s.Name(), stats.MaxStretch, delta)
	}
	if stats.Routes == 0 {
		t.Fatalf("%s: no routes evaluated", s.Name())
	}
	return stats
}

func TestThm21OnJitteredGrid(t *testing.T) {
	g, err := graph.GridGraph(7, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	delta := 0.5
	s, err := NewThm21(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	apsp, err := graph.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	stats := evaluateScheme(t, s, apsp.Metric(), delta, 1)
	if stats.MaxTableBits <= 0 || stats.MaxLabelBits <= 0 || stats.MaxHeaderBits <= 0 {
		t.Errorf("missing size accounting: %+v", stats)
	}
}

func TestThm21OnExponentialPath(t *testing.T) {
	// The adversarial log∆ workload: a path with edge weights 2^i.
	g, err := graph.ExponentialPath(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	delta := 0.5
	s, err := NewThm21(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	apsp, err := graph.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	evaluateScheme(t, s, apsp.Metric(), delta, 1)
	// Levels track log ∆, not log n (that is Table 1's log∆ factor).
	if s.Levels() < 20 {
		t.Errorf("Levels = %d, want ~log∆ = 23+", s.Levels())
	}
}

func TestThm21OnGeometricGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	space := metric.UniformCube(50, 2, 100, rng)
	g, err := graph.GeometricGraph(space, 30)
	if err != nil {
		t.Fatal(err)
	}
	delta := 0.3
	s, err := NewThm21(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	apsp, err := graph.AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	evaluateScheme(t, s, apsp.Metric(), delta, 1)
}

func TestThm21MetricMode(t *testing.T) {
	// Section 4.1: the scheme builds its own overlay; every leg is one
	// overlay hop and the out-degree is a measured cost.
	g, err := metric.NewGrid(6, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	idx := metric.NewIndex(g)
	delta := 0.5
	s, err := NewThm21Metric(idx, delta)
	if err != nil {
		t.Fatal(err)
	}
	stats := evaluateScheme(t, s, idx, delta, 1)
	if deg := s.Graph().MaxOutDegree(); deg <= 0 || deg >= idx.N() {
		t.Errorf("overlay out-degree = %d, want in (0, n)", deg)
	}
	_ = stats
}

func TestThm21MetricModeExponentialLine(t *testing.T) {
	line, err := metric.ExponentialLine(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	idx := metric.NewIndex(line)
	delta := 0.5
	s, err := NewThm21Metric(idx, delta)
	if err != nil {
		t.Fatal(err)
	}
	evaluateScheme(t, s, idx, delta, 1)
}

func TestThm21RejectsBadDelta(t *testing.T) {
	g, _ := graph.GridGraph(3, 0, 1)
	for _, d := range []float64{0, -1, 1.5} {
		if _, err := NewThm21(g, d); err == nil {
			t.Errorf("accepted delta=%v", d)
		}
	}
}

func TestThm21HeaderRejectsForeign(t *testing.T) {
	g, _ := graph.GridGraph(3, 0, 1)
	s, err := NewThm21(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.NextHop(0, fakeHeader{}); err == nil {
		t.Error("accepted foreign header")
	}
	if _, err := s.InitHeader(0, 99); err == nil {
		t.Error("accepted invalid target")
	}
}

type fakeHeader struct{}

func (fakeHeader) Bits() int { return 0 }

// TestThm21IdenticalAcrossWorkers pins the determinism the parallel
// build relies on: the ring and ζ/first-hop loops write only slot u, so
// one worker and four build the same tables, the same labels and the
// same routes.
func TestThm21IdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := metric.NewIndex(metric.UniformCube(96, 2, 100, rng))
	type built struct {
		s *Thm21
		b *thm21Build
	}
	build := func(procs int) built {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, b, err := newThm21Metric(idx, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return built{s, b}
	}
	one, four := build(1), build(4)
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"rings", one.b.rings, four.b.rings},
		{"zoom rings", one.b.zoom, four.b.zoom},
		{"ring spans", one.s.ring, four.s.ring},
		{"zeta rows", one.s.row, four.s.row},
		{"zeta", one.s.cells, four.s.cells},
		{"first hops", one.s.hops, four.s.hops},
		{"self slots", one.s.self, four.s.self},
		{"labels", one.s.labels, four.s.labels},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			t.Errorf("%s differ between 1 and 4 workers", f.name)
		}
	}
	n := idx.N()
	for q := 0; q < 200; q++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		a, err := Route(one.s, src, dst, 50*n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Route(four.s, src, dst, 50*n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("route(%d,%d): %+v with 1 worker, %+v with 4", src, dst, a, b)
		}
	}
}

// TestThm21HopAllocatesNothing: decode fills the header's slot buffer,
// so once InitHeader has run, every forwarding decision of a route is
// allocation-free.
func TestThm21HopAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := metric.NewIndex(metric.UniformCube(128, 2, 100, rng))
	s, err := NewThm21Metric(idx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n := idx.N()
	for q := 0; q < 20; q++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		hdr, err := s.InitHeader(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		hops := 0
		allocs := testing.AllocsPerRun(10, func() {
			hdr.(*thm21Header).j = -1
			for u, hop := src, 0; hop <= 50*n; hop++ {
				e, done, err := s.NextHop(u, hdr)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					hops = hop
					return
				}
				u = s.g.Out(u)[e].To
			}
			t.Fatalf("route %d->%d: hop budget exhausted", src, dst)
		})
		if allocs != 0 {
			t.Fatalf("route %d->%d (%d hops): %v allocations per walk, want 0", src, dst, hops, allocs)
		}
	}
}

// TestLayoutRefusesWideRings: a ζ cell is a uint16 with nullCell for an
// absent translation, so the layout refuses a next ring of nullCell
// slots with ErrRouterWidth (no truncation) and takes one slot fewer; ζ
// cells past a uint32 offset are refused the same way. The sizes are
// synthetic, so no space that large is built.
func TestLayoutRefusesWideRings(t *testing.T) {
	sizes := func(next int) func(u, j int) int {
		return func(u, j int) int {
			if j == 0 {
				return 1
			}
			return next
		}
	}
	narrow := func(u, j, a int) int { return 2 }
	if _, _, err := layout(2, 2, sizes(nullCell), narrow); !errors.Is(err, ErrRouterWidth) {
		t.Fatalf("next ring of %d slots: err = %v, want ErrRouterWidth", nullCell, err)
	}
	ring, row, err := layout(2, 2, sizes(nullCell-1), narrow)
	if err != nil {
		t.Fatalf("next ring of %d slots: %v", nullCell-1, err)
	}
	if slots := 2 * nullCell; int(ring[len(ring)-1]) != slots || len(row) != slots+1 || row[slots] != 4 {
		t.Fatalf("layout of two nodes: %d slots, %d row offsets ending at %d cells; want %d, %d, 4",
			ring[len(ring)-1], len(row), row[len(row)-1], slots, slots+1)
	}
	huge := func(u, j, a int) int { return math.MaxInt32 }
	if _, _, err := layout(3, 2, sizes(1), huge); !errors.Is(err, ErrRouterWidth) {
		t.Fatalf("ζ cells past uint32: err = %v, want ErrRouterWidth", err)
	}
}

package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rings/internal/metric"
)

func mustGrid(t *testing.T, side int, jitter float64) *Graph {
	t.Helper()
	g, err := GridGraph(side, jitter, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	cases := []struct {
		u, v int
		w    float64
	}{
		{0, 0, 1}, {0, 3, 1}, {-1, 0, 1}, {0, 1, 0}, {0, 1, -2},
		{0, 1, math.NaN()}, {0, 1, math.Inf(1)},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("AddEdge(%d,%d,%v) accepted", c.u, c.v, c.w)
		}
	}
	if err := g.AddUndirected(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.OutDegree(0) != 1 || g.MaxOutDegree() != 1 {
		t.Errorf("edge bookkeeping wrong: m=%d deg0=%d max=%d", g.NumEdges(), g.OutDegree(0), g.MaxOutDegree())
	}
	if g.EdgeIndex(0, 1) != 0 || g.EdgeIndex(1, 0) != 0 || g.EdgeIndex(0, 2) != -1 {
		t.Error("EdgeIndex wrong")
	}
}

func TestDijkstraOnKnownGraph(t *testing.T) {
	//     1 --2-- 2
	//    /         \
	//   0 ----9---- 3
	g := New(4)
	for _, e := range [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {0, 3, 9}} {
		if err := g.AddUndirected(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	sp := Dijkstra(g, 0)
	want := []float64{0, 1, 3, 4}
	for v, d := range want {
		if sp.Dist[v] != d {
			t.Errorf("Dist[%d] = %v, want %v", v, sp.Dist[v], d)
		}
	}
	path, ok := sp.PathTo(3)
	if !ok || len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Errorf("PathTo(3) = %v, %v", path, ok)
	}
	// First hop from 0 toward 3 goes via node 1 (edge index 0).
	if sp.FirstHop[3] != 0 {
		t.Errorf("FirstHop[3] = %d, want 0", sp.FirstHop[3])
	}
	if sp.FirstHop[0] != -1 {
		t.Errorf("FirstHop[source] = %d, want -1", sp.FirstHop[0])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(2)
	sp := Dijkstra(g, 0)
	if !math.IsInf(sp.Dist[1], 1) {
		t.Errorf("Dist[1] = %v, want +Inf", sp.Dist[1])
	}
	if _, ok := sp.PathTo(1); ok {
		t.Error("PathTo returned ok for unreachable node")
	}
	if Connected(g) {
		t.Error("Connected true for disconnected graph")
	}
	if _, err := AllPairs(g); err == nil {
		t.Error("AllPairs accepted disconnected graph")
	}
}

func TestAllPairsMatchesDijkstra(t *testing.T) {
	g := mustGrid(t, 5, 0.3)
	a, err := AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 7, 24} {
		sp := Dijkstra(g, u)
		for v := 0; v < g.N(); v++ {
			if a.Dist(u, v) != sp.Dist[v] {
				t.Fatalf("Dist(%d,%d): APSP %v vs Dijkstra %v", u, v, a.Dist(u, v), sp.Dist[v])
			}
		}
	}
}

func TestAPSPFirstHopPathsAreShortest(t *testing.T) {
	g := mustGrid(t, 6, 0.25)
	a, err := AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 5 {
		for v := 0; v < g.N(); v += 3 {
			path := a.Path(u, v)
			if path[0] != u || path[len(path)-1] != v {
				t.Fatalf("Path(%d,%d) endpoints wrong: %v", u, v, path)
			}
			length, ok := PathLength(g, path)
			if !ok {
				t.Fatalf("Path(%d,%d) contains a missing edge", u, v)
			}
			if math.Abs(length-a.Dist(u, v)) > 1e-9 {
				t.Fatalf("Path(%d,%d) length %v != dist %v", u, v, length, a.Dist(u, v))
			}
			if got, want := a.HopCount(u, v), len(path)-1; got != want {
				t.Fatalf("HopCount(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
	if a.NextNode(3, 3) != 3 || a.FirstHop(3, 3) != -1 {
		t.Error("self next-hop wrong")
	}
}

func TestAPSPMetricIsMetric(t *testing.T) {
	g := mustGrid(t, 4, 0.2)
	a, err := AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := metric.Validate(a.Metric()); err != nil {
		t.Fatalf("shortest-path metric invalid: %v", err)
	}
}

func TestBoundedHopPath(t *testing.T) {
	// Path 0-1-2-3 (each weight 1) plus shortcut 0-3 of weight 3.5.
	g := New(4)
	for i := 0; i < 3; i++ {
		if err := g.AddUndirected(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddUndirected(0, 3, 3.5); err != nil {
		t.Fatal(err)
	}
	// Within stretch 1.2 (maxLen 3.6) the 1-hop shortcut qualifies.
	path, ok := BoundedHopPath(g, 0, 3, 3.6, 10)
	if !ok || len(path) != 2 {
		t.Fatalf("BoundedHopPath(len<=3.6) = %v, %v; want the 1-hop shortcut", path, ok)
	}
	// Within stretch 1.0 (maxLen 3.0) only the 3-hop path qualifies.
	path, ok = BoundedHopPath(g, 0, 3, 3.0, 10)
	if !ok || len(path) != 4 {
		t.Fatalf("BoundedHopPath(len<=3) = %v, %v; want the 3-hop path", path, ok)
	}
	// Infeasible length.
	if _, ok := BoundedHopPath(g, 0, 3, 2.0, 10); ok {
		t.Error("BoundedHopPath found an impossible path")
	}
	// Hop budget too small.
	if _, ok := BoundedHopPath(g, 0, 3, 3.0, 2); ok {
		t.Error("BoundedHopPath ignored the hop budget")
	}
	// Trivial source == target.
	if p, ok := BoundedHopPath(g, 2, 2, 0, 0); !ok || len(p) != 1 {
		t.Error("BoundedHopPath(u,u) wrong")
	}
}

// Property: BoundedHopPath with generous budgets returns a path whose
// length is within the bound and whose hops do not exceed the budget.
func TestBoundedHopPathProperty(t *testing.T) {
	g := mustGrid(t, 5, 0.4)
	a, err := AllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(uRaw, vRaw uint8) bool {
		u, v := int(uRaw)%g.N(), int(vRaw)%g.N()
		maxLen := a.Dist(u, v) * 1.1
		path, ok := BoundedHopPath(g, u, v, maxLen, g.N())
		if !ok {
			return false // shortest path always fits at stretch 1.1
		}
		length, good := PathLength(g, path)
		return good && length <= maxLen+1e-9 && path[0] == u && path[len(path)-1] == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGridGraphAndExponentialPath(t *testing.T) {
	g := mustGrid(t, 4, 0)
	if !Connected(g) {
		t.Error("grid not connected")
	}
	if g.N() != 16 {
		t.Errorf("N = %d", g.N())
	}
	if _, err := GridGraph(1, 0, 0); err == nil {
		t.Error("accepted side=1")
	}

	p, err := ExponentialPath(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AllPairs(p)
	if err != nil {
		t.Fatal(err)
	}
	// d(0, 7) = 1+2+...+64 = 127.
	if got := a.Dist(0, 7); got != 127 {
		t.Errorf("Dist(0,7) = %v, want 127", got)
	}
	for _, bad := range []struct {
		n    int
		base float64
	}{{1, 2}, {5, 1}, {3000, 2}} {
		if _, err := ExponentialPath(bad.n, bad.base); err == nil {
			t.Errorf("accepted n=%d base=%v", bad.n, bad.base)
		}
	}
}

func TestGeometricGraphConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	space := metric.UniformCube(60, 2, 100, rng)
	// Tiny radius: the MST fallback must still connect it.
	g, err := GeometricGraph(space, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !Connected(g) {
		t.Error("geometric graph with MST fallback not connected")
	}
	// Generous radius: distances should match the metric closely.
	g2, err := GeometricGraph(space, 150)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AllPairs(g2)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			if math.Abs(a.Dist(u, v)-space.Dist(u, v)) > 1e-9 {
				t.Fatalf("complete geometric graph distance mismatch at (%d,%d)", u, v)
			}
		}
	}
	if _, err := GeometricGraph(mustSingleton(t), 1); err == nil {
		t.Error("accepted single-node space")
	}
}

func mustSingleton(t *testing.T) metric.Space {
	t.Helper()
	m, err := metric.NewMatrix([][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOverlayFromNeighborsAndSymmetrize(t *testing.T) {
	line, err := metric.NewLine([]float64{0, 1, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	over, err := OverlayFromNeighbors(line, [][]int{
		{0, 1, 2}, // self-loop 0 dropped
		{0},
		{3},
		{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if over.OutDegree(0) != 2 {
		t.Errorf("OutDegree(0) = %d, want 2 (self-loop drop)", over.OutDegree(0))
	}
	// Out-edges ascend by To, and SearchEdge agrees with EdgeIndex on
	// every (u, v), present or not.
	for u := 0; u < over.N(); u++ {
		out := over.Out(u)
		for i := 1; i < len(out); i++ {
			if out[i-1].To >= out[i].To {
				t.Fatalf("out-edges of %d not ascending by To: %v", u, out)
			}
		}
		for v := 0; v < over.N(); v++ {
			if got, want := over.SearchEdge(u, v), over.EdgeIndex(u, v); got != want {
				t.Fatalf("SearchEdge(%d,%d) = %d, EdgeIndex %d", u, v, got, want)
			}
		}
	}
	for _, bad := range [][]int{{2, 1}, {1, 1}} {
		if _, err := OverlayFromNeighbors(line, [][]int{bad, nil, nil, nil}); err == nil {
			t.Errorf("accepted neighbor list %v (not strictly ascending)", bad)
		}
	}
	if over.Out(0)[0].Weight != 1 || over.Out(1)[0].Weight != 1 {
		t.Error("overlay weights wrong")
	}
	sym := Symmetrize(over)
	for u := 0; u < sym.N(); u++ {
		for _, e := range sym.Out(u) {
			if sym.EdgeIndex(e.To, u) < 0 {
				t.Fatalf("edge %d->%d not mirrored", u, e.To)
			}
		}
	}
	if _, err := OverlayFromNeighbors(line, [][]int{{1}}); err == nil {
		t.Error("accepted mismatched neighbor lists")
	}
}

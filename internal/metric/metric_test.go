package metric

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestValidateMatrix(t *testing.T) {
	m, err := NewMatrix([][]float64{
		{0, 1, 2},
		{1, 0, 1.5},
		{2, 1.5, 0},
	})
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadMatrices(t *testing.T) {
	cases := map[string][][]float64{
		"asymmetric":      {{0, 1}, {2, 0}},
		"nonzeroDiagonal": {{1, 1}, {1, 0}},
		"zeroOffDiagonal": {{0, 0}, {0, 0}},
		"triangle":        {{0, 1, 5}, {1, 0, 1}, {5, 1, 0}},
	}
	for name, d := range cases {
		m, err := NewMatrix(d)
		if err != nil {
			t.Fatalf("%s: NewMatrix: %v", name, err)
		}
		if err := Validate(m); err == nil {
			t.Errorf("%s: Validate accepted an invalid metric", name)
		}
	}
}

func TestNewMatrixRejectsRagged(t *testing.T) {
	if _, err := NewMatrix([][]float64{{0, 1}, {1}}); err == nil {
		t.Fatal("NewMatrix accepted a ragged matrix")
	}
}

func TestIndexBallPrimitives(t *testing.T) {
	m, err := NewMatrix([][]float64{
		{0, 1, 3, 7},
		{1, 0, 2, 6},
		{3, 2, 0, 4},
		{7, 6, 4, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex(m)

	if got, want := idx.Diameter(), 7.0; got != want {
		t.Errorf("Diameter = %v, want %v", got, want)
	}
	if got, want := idx.MinDistance(), 1.0; got != want {
		t.Errorf("MinDistance = %v, want %v", got, want)
	}
	if got, want := idx.AspectRatio(), 7.0; got != want {
		t.Errorf("AspectRatio = %v, want %v", got, want)
	}
	if got, want := idx.BallCount(0, 3), 3; got != want {
		t.Errorf("BallCount(0,3) = %v, want %v", got, want)
	}
	if got, want := idx.BallCount(0, 2.99), 2; got != want {
		t.Errorf("BallCount(0,2.99) = %v, want %v", got, want)
	}
	if got, want := idx.RadiusForCount(0, 3), 3.0; got != want {
		t.Errorf("RadiusForCount(0,3) = %v, want %v", got, want)
	}
	if got, want := idx.RadiusForMass(0, 1), 7.0; got != want {
		t.Errorf("RadiusForMass(0,1) = %v, want %v", got, want)
	}
	if got, want := idx.RadiusForMass(0, 0.5), 1.0; got != want {
		t.Errorf("RadiusForMass(0,0.5) = %v, want %v", got, want)
	}
	if got, want := idx.Eccentricity(3), 7.0; got != want {
		t.Errorf("Eccentricity(3) = %v, want %v", got, want)
	}

	ball := idx.Ball(0, 3)
	if len(ball) != 3 || ball[0].Node != 0 || ball[1].Node != 1 || ball[2].Node != 2 {
		t.Errorf("Ball(0,3) = %v, want nodes [0 1 2]", ball)
	}
}

func TestIndexSortedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	space := UniformCube(60, 3, 10, rng)
	idx := NewIndex(space)
	for u := 0; u < space.N(); u++ {
		row := idx.Sorted(u)
		if row[0].Node != u || row[0].Dist != 0 {
			t.Fatalf("Sorted(%d)[0] = %v, want self at distance 0", u, row[0])
		}
		for i := 1; i < len(row); i++ {
			if row[i].Dist < row[i-1].Dist {
				t.Fatalf("Sorted(%d) not ascending at %d", u, i)
			}
			if got := space.Dist(u, row[i].Node); got != row[i].Dist {
				t.Fatalf("Sorted(%d)[%d] stored %v, space says %v", u, i, row[i].Dist, got)
			}
		}
	}
}

// TestRowsMatchStableSortReference pins the eager rows against two
// references: the order built without neighborCmp (nodes in id order,
// stably sorted by distance alone, so equal distances keep ascending
// ids) and slices.SortFunc(neighborCmp), the sort the rows once came
// from. The grids tie constantly; the n = 256 spaces take the radix
// path, the small ones the short-row fallback.
func TestRowsMatchStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grid, err := NewGrid(9, 2, L1)
	if err != nil {
		t.Fatal(err)
	}
	grid16, err := NewGrid(16, 2, L2)
	if err != nil {
		t.Fatal(err)
	}
	expline, err := ExponentialLine(256, 2)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := NewClusteredLatency(256, 3, []int{4, 4}, []float64{300, 60, 10}, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	spaces := []Space{grid, UniformCube(70, 2, 10, rng), grid16, UniformCube(256, 2, 10, rng), expline, lat}
	for _, space := range spaces {
		idx := NewIndex(space)
		n := space.N()
		for u := 0; u < n; u++ {
			want := make([]Neighbor, n)
			for v := range want {
				want[v] = Neighbor{Node: v, Dist: space.Dist(u, v)}
			}
			cmpRef := slices.Clone(want)
			slices.SortFunc(cmpRef, neighborCmp)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Dist < want[j].Dist })
			got := idx.Sorted(u)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n = %d: row %d = %v, want %v", n, u, got, want)
			}
			if !reflect.DeepEqual(got, cmpRef) {
				t.Fatalf("n = %d: row %d = %v, SortFunc gives %v", n, u, got, cmpRef)
			}
		}
	}
}

func TestNearest(t *testing.T) {
	m, _ := NewMatrix([][]float64{
		{0, 1, 3},
		{1, 0, 2},
		{3, 2, 0},
	})
	idx := NewIndex(m)
	node, dist, ok := idx.Nearest(0, []int{1, 2})
	if !ok || node != 1 || dist != 1 {
		t.Errorf("Nearest = (%d,%v,%v), want (1,1,true)", node, dist, ok)
	}
	if _, _, ok := idx.Nearest(0, nil); ok {
		t.Error("Nearest on empty candidates reported ok")
	}
}

func TestGridProperties(t *testing.T) {
	g, err := NewGrid(4, 2, L1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.N(), 16; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	if err := Validate(g); err != nil {
		t.Fatalf("Validate(grid): %v", err)
	}
	// Distance between opposite corners of a 4x4 L1 grid is 3+3.
	if got, want := g.Dist(0, 15), 6.0; got != want {
		t.Errorf("corner distance = %v, want %v", got, want)
	}
	c := g.Coords(7) // 7 = 3 + 1*4
	if c[0] != 3 || c[1] != 1 {
		t.Errorf("Coords(7) = %v, want [3 1]", c)
	}
}

func TestGridNorms(t *testing.T) {
	for _, norm := range []Norm{L1, L2, Linf} {
		g, err := NewGrid(3, 2, norm)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g); err != nil {
			t.Errorf("Validate(grid %v): %v", norm, err)
		}
	}
}

func TestExponentialLine(t *testing.T) {
	l, err := ExponentialLine(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(l); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	idx := NewIndex(l)
	// Aspect ratio: diameter 2^9-1 = 511, min distance 2-1 = 1.
	if got, want := idx.AspectRatio(), 511.0; got != want {
		t.Errorf("AspectRatio = %v, want %v", got, want)
	}
	// The exponential line is doubling with small constant.
	if alpha := DoublingDimension(idx); alpha > 3 {
		t.Errorf("DoublingDimension(exp line) = %v, want <= 3", alpha)
	}
}

func TestExponentialLineForAspect(t *testing.T) {
	for _, logA := range []float64{16, 64, 300, 900} {
		l, err := ExponentialLineForAspect(64, logA)
		if err != nil {
			t.Fatalf("log2 aspect %v: %v", logA, err)
		}
		idx := NewIndex(l)
		got := LogAspect(idx)
		if math.Abs(got-logA) > logA/2+4 {
			t.Errorf("LogAspect = %v, want roughly %v", got, logA)
		}
	}
}

func TestExponentialLineErrors(t *testing.T) {
	if _, err := ExponentialLine(0, 2); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := ExponentialLine(10, 1); err == nil {
		t.Error("accepted base=1")
	}
	if _, err := ExponentialLine(4000, 2); err == nil {
		t.Error("accepted overflowing line")
	}
	if _, err := NewLine([]float64{1, 1}); err == nil {
		t.Error("accepted non-increasing line")
	}
	if _, err := NewLine(nil); err == nil {
		t.Error("accepted empty line")
	}
}

func TestClusteredLatencyIsMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c, err := NewClusteredLatency(80, 3, []int{3, 4}, []float64{100, 20, 4}, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(c); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	idx := NewIndex(c)
	if alpha := DoublingDimension(idx); alpha > 7 {
		t.Errorf("DoublingDimension(latency) = %v, want small", alpha)
	}
}

func TestClusteredLatencyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewClusteredLatency(10, 3, []int{2}, []float64{1}, 0, rng); err == nil {
		t.Error("accepted mismatched spreads")
	}
	if _, err := NewClusteredLatency(0, 3, []int{2}, []float64{10, 1}, 0, rng); err == nil {
		t.Error("accepted n=0")
	}
}

func TestPerturbedSymmetricAndBounded(t *testing.T) {
	g, _ := NewGrid(4, 2, L2)
	p := NewPerturbed(g, 0.05, 99)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			got, back := p.Dist(u, v), p.Dist(v, u)
			if got != back {
				t.Fatalf("perturbation broke symmetry at (%d,%d)", u, v)
			}
			base := g.Dist(u, v)
			if got < base || got > base*1.05 {
				t.Fatalf("Dist(%d,%d) = %v outside [%v, %v]", u, v, got, base, base*1.05)
			}
		}
	}
	// Deterministic for a fixed seed, different across seeds.
	p2 := NewPerturbed(g, 0.05, 99)
	if p.Dist(1, 7) != p2.Dist(1, 7) {
		t.Error("perturbation not deterministic for equal seeds")
	}
}

// Property: UniformCube always produces a valid metric (quick-checked over
// seeds and sizes).
func TestUniformCubeMetricProperty(t *testing.T) {
	f := func(seed int64, nRaw, dimRaw uint8) bool {
		n := int(nRaw%20) + 2
		dim := int(dimRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		space := UniformCube(n, dim, 100, rng)
		return Validate(space) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: RadiusForMass is monotone in eps and BallCount inverts it.
func TestBallRadiusDualityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	space := UniformCube(50, 2, 10, rng)
	idx := NewIndex(space)
	f := func(uRaw uint8, epsRaw uint16) bool {
		u := int(uRaw) % idx.N()
		eps := (float64(epsRaw%1000) + 1) / 1000
		r := idx.RadiusForMass(u, eps)
		k := int(math.Ceil(eps * float64(idx.N())))
		// The ball of radius r holds at least k nodes, and any strictly
		// smaller ball holds fewer.
		if idx.BallCount(u, r) < k {
			return false
		}
		return r == 0 || idx.BallCount(u, r*(1-1e-12))-1 < k || idx.RadiusForCount(u, k) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDoublingDimensionGrid(t *testing.T) {
	g, _ := NewGrid(8, 2, L2)
	idx := NewIndex(g)
	alpha := DoublingDimension(idx)
	if alpha < 1 || alpha > 4.2 {
		t.Errorf("DoublingDimension(8x8 grid) = %v, want within [1, 4.2]", alpha)
	}
	lhs, rhs, ok := CheckLemma12(idx, alpha)
	if !ok {
		t.Errorf("Lemma 1.2 violated: 1+log(Delta)=%v < log(n)/alpha=%v", lhs, rhs)
	}
}

func TestGreedyCoverCoversBall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	space := UniformCube(70, 2, 10, rng)
	idx := NewIndex(space)
	r := idx.Diameter() / 2
	for _, k := range []int{1, 2} {
		centers := GreedyCover(idx, 0, r, k)
		sub := r / math.Pow(2, float64(k))
		for _, nb := range idx.Ball(0, r) {
			covered := false
			for _, c := range centers {
				if space.Dist(nb.Node, c) <= sub {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("k=%d: node %d not covered", k, nb.Node)
			}
		}
	}
}

func TestGridRejectsHugeAndInvalid(t *testing.T) {
	if _, err := NewGrid(0, 2, L2); err == nil {
		t.Error("accepted side=0")
	}
	if _, err := NewGrid(4096, 4, L2); err == nil {
		t.Error("accepted oversized grid")
	}
}

func TestMaterializeMatchesSpace(t *testing.T) {
	g, _ := NewGrid(3, 2, L2)
	m := Materialize(g)
	if m.N() != g.N() {
		t.Fatalf("N mismatch")
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if m.Dist(u, v) != g.Dist(u, v) {
				t.Fatalf("Dist(%d,%d) differs", u, v)
			}
		}
	}
}

func TestEuclideanErrors(t *testing.T) {
	if _, err := NewEuclidean(nil, L2); err == nil {
		t.Error("accepted empty point set")
	}
	if _, err := NewEuclidean([][]float64{{1, 2}, {1}}, L2); err == nil {
		t.Error("accepted ragged points")
	}
}

func TestEuclideanNorms(t *testing.T) {
	e, err := NewEuclidean([][]float64{{0, 0}, {3, 4}}, L2)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Dist(0, 1); got != 5 {
		t.Errorf("L2 = %v, want 5", got)
	}
	e.norm = L1
	if got := e.Dist(0, 1); got != 7 {
		t.Errorf("L1 = %v, want 7", got)
	}
	e.norm = Linf
	if got := e.Dist(0, 1); got != 4 {
		t.Errorf("Linf = %v, want 4", got)
	}
	if p := e.Point(1); p[0] != 3 || p[1] != 4 {
		t.Errorf("Point(1) = %v", p)
	}
}

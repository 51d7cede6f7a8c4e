package triangulation

import (
	"math"
	"math/rand"
	"testing"

	"rings/internal/metric"
)

func indexFor(t *testing.T, space metric.Space) metric.BallIndex {
	t.Helper()
	return metric.NewIndex(space)
}

func gridIdx(t *testing.T, side int) metric.BallIndex {
	t.Helper()
	g, err := metric.NewGrid(side, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	return indexFor(t, g)
}

func TestConstructionInvariantsGrid(t *testing.T) {
	idx := gridIdx(t, 6)
	c, err := NewConstruction(idx, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.IMax != int(math.Floor(math.Log2(36))) {
		t.Errorf("IMax = %d", c.IMax)
	}
	// Level-0 uniformization: X_u0 and Y_u0 coincide for all u.
	for u := 1; u < idx.N(); u++ {
		if !equalInts(c.X[0][0], c.X[u][0]) {
			t.Fatalf("X_%d,0 differs from X_0,0", u)
		}
		if !equalInts(c.Y[0][0], c.Y[u][0]) {
			t.Fatalf("Y_%d,0 differs from Y_0,0", u)
		}
	}
	if c.MaxNeighborsPerLevel() < 1 {
		t.Error("MaxNeighborsPerLevel < 1")
	}
	// NearestX returns a genuine X-neighbor.
	for _, i := range []int{0, c.IMax / 2, c.IMax} {
		w, ok := c.NearestX(3, i)
		if !ok {
			t.Fatalf("NearestX(3,%d) not found", i)
		}
		if !contains(c.X[3][i], w) {
			t.Fatalf("NearestX(3,%d)=%d not in X set", i, w)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConstructionRejectsBadParams(t *testing.T) {
	idx := gridIdx(t, 3)
	for _, dp := range []float64{0, -0.1, 0.5, 0.9} {
		if _, err := NewConstruction(idx, dp); err == nil {
			t.Errorf("accepted deltaPrime=%v", dp)
		}
	}
	one, _ := metric.NewMatrix([][]float64{{0}})
	if _, err := NewConstruction(indexFor(t, one), 0.1); err == nil {
		t.Error("accepted single-node space")
	}
}

// TestConstructionRefusesShortYReach: a Y-ring reach below 1 does not
// cover r_u0 (the diameter), so the labels' level-0 prefix would not be
// shared and lower <= d would fail; the construction refuses it. Reach 1
// is the shortest accepted.
func TestConstructionRefusesShortYReach(t *testing.T) {
	idx := gridIdx(t, 6)
	if _, err := NewConstructionParams(idx, TunedParams(0.5/6, 0.75)); err == nil {
		t.Fatal("accepted Y reach 0.75")
	}
	if _, err := NewConstructionParams(idx, TunedParams(0.5/6, 1)); err != nil {
		t.Fatalf("refused Y reach 1: %v", err)
	}
}

func verifyTriangulation(t *testing.T, idx metric.BallIndex, delta float64) PairStats {
	t.Helper()
	tri, err := New(idx, delta)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tri.VerifyAllPairs()
	if err != nil {
		t.Fatalf("delta=%v: %v", delta, err)
	}
	if stats.BadPairs != 0 {
		t.Fatalf("delta=%v: %d bad pairs", delta, stats.BadPairs)
	}
	if stats.WorstRatio > 1+delta+1e-9 {
		t.Fatalf("delta=%v: worst ratio %v", delta, stats.WorstRatio)
	}
	return stats
}

func TestZeroDeltaTriangulationGrid(t *testing.T) {
	idx := gridIdx(t, 6)
	stats := verifyTriangulation(t, idx, 0.5)
	if stats.Pairs != 36*35/2 {
		t.Errorf("Pairs = %d", stats.Pairs)
	}
}

func TestZeroDeltaTriangulationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	idx := indexFor(t, metric.UniformCube(90, 2, 100, rng))
	verifyTriangulation(t, idx, 0.3)
}

func TestZeroDeltaTriangulationExponentialLine(t *testing.T) {
	line, err := metric.ExponentialLine(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	verifyTriangulation(t, indexFor(t, line), 0.5)
}

func TestZeroDeltaTriangulationClusteredLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	space, err := metric.NewClusteredLatency(80, 3, []int{3, 3}, []float64{200, 40, 8}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	verifyTriangulation(t, indexFor(t, space), 0.4)
}

func TestOrderGrowsLogarithmically(t *testing.T) {
	// Theorem 3.2: order is O_delta(log n). On unit grids the paper's
	// ring constants exceed lab-scale n (every ring swallows the space;
	// see Params doc), but on the exponential line — where distance
	// scales spread across n octaves — the logarithmic shape shows
	// directly with paper constants: the order grows by a roughly
	// constant increment per doubling of n.
	orders := make(map[int]int)
	for _, n := range []int{16, 32, 64, 128} {
		line, err := metric.ExponentialLine(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		tri, err := New(indexFor(t, line), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tri.VerifyAllPairs(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		orders[n] = tri.Order()
	}
	// Linear-in-n growth would double the order per step; log growth adds
	// a roughly constant increment.
	inc1 := orders[32] - orders[16]
	inc2 := orders[128] - orders[64]
	if inc2 > 2*inc1+4 {
		t.Errorf("order increments accelerate: %v", orders)
	}
	if orders[128] >= 128 {
		t.Errorf("order %d did not beat n=128", orders[128])
	}
}

func TestEstimateSelfConsistency(t *testing.T) {
	idx := gridIdx(t, 5)
	tri, err := New(idx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := tri.Estimate(3, 3)
	if !ok || lo != 0 || hi != 0 {
		t.Errorf("Estimate(u,u) = (%v,%v,%v), want (0,0,true)", lo, hi, ok)
	}
	if len(tri.Beacons(0)) == 0 {
		t.Error("no beacons for node 0")
	}
}

func TestLabelBits(t *testing.T) {
	idx := gridIdx(t, 5)
	tri, err := New(idx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := tri.MaxLabelBits()
	if err != nil {
		t.Fatal(err)
	}
	if bits <= 0 {
		t.Fatal("MaxLabelBits <= 0")
	}
	// Sanity: label far below the trivial O(n log Delta) encoding.
	trivial := idx.N() * 32
	if bits >= trivial {
		t.Errorf("label bits %d not better than trivial %d", bits, trivial)
	}
}

func TestNewRejectsBadDelta(t *testing.T) {
	idx := gridIdx(t, 3)
	for _, d := range []float64{0, -1, 1.5} {
		if _, err := New(idx, d); err == nil {
			t.Errorf("accepted delta=%v", d)
		}
	}
}

func TestSharedBeaconsBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	idx := indexFor(t, metric.UniformCube(70, 2, 100, rng))
	tri, err := New(idx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Give the baseline the same beacon budget as our order.
	k := tri.Order()
	if k > idx.N() {
		k = idx.N()
	}
	shared, err := NewSharedBeacons(idx, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Order() != k {
		t.Errorf("Order = %d, want %d", shared.Order(), k)
	}
	// The baseline leaves some pairs uncovered (the paper's "obvious
	// flaw"), while ours covers all. With random beacons on a random
	// metric, nearby pairs almost surely lack a close beacon.
	eps := shared.BadPairFraction(0.5)
	if eps == 0 {
		t.Log("warning: baseline had no bad pairs on this instance (unusual but possible)")
	}
	stats, err := tri.VerifyAllPairs()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BadPairs != 0 {
		t.Errorf("ring triangulation has %d bad pairs", stats.BadPairs)
	}
	// Estimates remain valid bounds.
	lo, hi := shared.Estimate(0, 1)
	d := idx.Dist(0, 1)
	if lo > d+1e-9 || hi < d-1e-9 {
		t.Errorf("baseline sandwich violated: %v <= %v <= %v", lo, d, hi)
	}
}

func TestSharedBeaconsErrors(t *testing.T) {
	idx := gridIdx(t, 3)
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSharedBeacons(idx, 0, rng); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewSharedBeacons(idx, idx.N()+1, rng); err == nil {
		t.Error("accepted k>n")
	}
}

func TestCriticalLevelBounds(t *testing.T) {
	idx := gridIdx(t, 5)
	c, err := NewConstruction(idx, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < idx.N(); u += 3 {
		for v := 0; v < idx.N(); v += 4 {
			if u == v {
				continue
			}
			i := c.CriticalLevel(u, v)
			bound := (2 + c.DeltaPrime) * idx.Dist(u, v)
			if c.R[u][i] > bound {
				t.Fatalf("CriticalLevel(%d,%d)=%d: r=%v > bound=%v", u, v, i, c.R[u][i], bound)
			}
			if i > 0 && c.R[u][i-1] <= bound {
				t.Fatalf("CriticalLevel(%d,%d)=%d not minimal", u, v, i)
			}
		}
	}
}

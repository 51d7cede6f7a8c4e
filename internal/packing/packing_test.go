package packing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rings/internal/measure"
	"rings/internal/metric"
)

func samplerFor(t *testing.T, space metric.Space) (metric.BallIndex, *measure.Sampler) {
	t.Helper()
	idx := metric.NewIndex(space)
	m := measure.Counting(idx.N())
	s, err := measure.NewSampler(idx, m)
	if err != nil {
		t.Fatal(err)
	}
	return idx, s
}

func TestPackingOnGrid(t *testing.T) {
	g, err := metric.NewGrid(8, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	idx, smp := samplerFor(t, g)
	for _, eps := range []float64{1, 0.5, 0.25, 1.0 / 8, 1.0 / 64} {
		p, err := New(idx, smp, eps)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if err := p.Verify(idx); err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if p.MinMass() <= 0 {
			t.Errorf("eps=%v: MinMass = %v", eps, p.MinMass())
		}
	}
}

func TestPackingOnExponentialLine(t *testing.T) {
	line, err := metric.ExponentialLine(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	idx, smp := samplerFor(t, line)
	for _, eps := range []float64{0.5, 1.0 / 4, 1.0 / 16} {
		p, err := New(idx, smp, eps)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if err := p.Verify(idx); err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
	}
}

func TestPackingWithDoublingMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	space := metric.UniformCube(100, 2, 50, rng)
	idx := metric.NewIndex(space)
	m, err := measure.Doubling(idx)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := measure.NewSampler(idx, m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(idx, smp, 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(idx); err != nil {
		t.Fatal(err)
	}
}

func TestPackingEpsOne(t *testing.T) {
	// eps = 1: every node's smallest ball of full measure reaches the far
	// side; the packing degenerates to a single ball family.
	g, _ := metric.NewGrid(3, 2, metric.L2)
	idx, smp := samplerFor(t, g)
	p, err := New(idx, smp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(idx); err != nil {
		t.Fatal(err)
	}
	if len(p.Balls) < 1 {
		t.Fatal("no balls")
	}
}

func TestPackingSingleNode(t *testing.T) {
	m, _ := metric.NewMatrix([][]float64{{0}})
	idx, smp := samplerFor(t, m)
	p, err := New(idx, smp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Balls) != 1 || p.Balls[0].Center != 0 {
		t.Fatalf("Balls = %+v", p.Balls)
	}
	if err := p.Verify(idx); err != nil {
		t.Fatal(err)
	}
}

func TestPackingRejectsBadEps(t *testing.T) {
	g, _ := metric.NewGrid(2, 2, metric.L2)
	idx, smp := samplerFor(t, g)
	for _, eps := range []float64{0, -1, 1.5} {
		if _, err := New(idx, smp, eps); err == nil {
			t.Errorf("accepted eps=%v", eps)
		}
	}
}

func TestBallContains(t *testing.T) {
	g, _ := metric.NewGrid(4, 2, metric.L2)
	idx, smp := samplerFor(t, g)
	p, err := New(idx, smp, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	b := &p.Balls[0]
	for _, v := range b.Nodes {
		if !b.Contains(idx, v) {
			t.Errorf("ball does not contain its own node %d", v)
		}
	}
}

// Property: packings exist and verify across random doubling metrics,
// scales of eps, and seeds (the "efficiently computed" claim of Lemma 3.1).
func TestPackingProperty(t *testing.T) {
	f := func(seed int64, nRaw, epsRaw uint8) bool {
		n := int(nRaw%60) + 4
		i := int(epsRaw % 6)
		eps := 1.0 / math.Pow(2, float64(i))
		rng := rand.New(rand.NewSource(seed))
		idx := metric.NewIndex(metric.UniformCube(n, 2, 100, rng))
		smp, err := measure.NewSampler(idx, measure.Counting(n))
		if err != nil {
			return false
		}
		p, err := New(idx, smp, eps)
		if err != nil {
			return false
		}
		return p.Verify(idx) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The paper uses the packing's "local net" behavior: for every node u the
// ball B_u(6 r_u) holds a packing ball, and balls are disjoint so at most
// k^O(alpha) of them fit in B_u(k r_u). We spot-check the second property
// loosely: counts stay polynomial in k, far below n.
func TestPackingLocalSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	space := metric.UniformCube(200, 2, 100, rng)
	idx := metric.NewIndex(space)
	smp, err := measure.NewSampler(idx, measure.Counting(idx.N()))
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0 / 16
	p, err := New(idx, smp, eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(idx); err != nil {
		t.Fatal(err)
	}
	// Balls each have mass >= MinMass*eps, and they are disjoint, so any
	// region of mass M holds at most M/(MinMass*eps) balls.
	if p.MinMass() < 1.0/1024 {
		t.Errorf("MinMass ratio %v suspiciously small", p.MinMass())
	}
}

// TestCoverMarksGenerations checks the covered-mark scratch of the
// greedy cover: a reset forgets every mark of the call before, also when
// the generation counter wraps, and a larger universe regrows it.
func TestCoverMarksGenerations(t *testing.T) {
	var m coverMarks
	m.reset(4)
	m.stamp[2] = m.gen
	m.reset(4)
	if m.stamp[2] == m.gen {
		t.Fatal("a mark survived reset")
	}
	m.gen = math.MaxUint32 - 1
	m.reset(4)
	m.stamp[1] = m.gen // marked at the last generation before the wrap
	m.reset(4)
	if m.gen == 0 || m.stamp[1] == m.gen {
		t.Fatalf("after the wrap: gen %d, stamp[1] %d", m.gen, m.stamp[1])
	}
	m.stamp[3] = m.gen
	m.reset(8)
	if len(m.stamp) != 8 || m.stamp[3] == m.gen {
		t.Fatalf("regrown to %d marks, stamp[3] %d at gen %d", len(m.stamp), m.stamp[3], m.gen)
	}
}

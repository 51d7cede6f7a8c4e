package nnsearch

import (
	"math"
	"math/rand"
	"testing"

	"rings/internal/metric"
)

func overlayOn(t *testing.T, space metric.Space, memberStride int, cfg Config) (metric.BallIndex, *Overlay) {
	t.Helper()
	idx := metric.NewIndex(space)
	var members []int
	for m := 0; m < idx.N(); m += memberStride {
		members = append(members, m)
	}
	o, err := New(idx, members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return idx, o
}

func TestNearestMemberOnGrid(t *testing.T) {
	g, err := metric.NewGrid(8, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	idx, o := overlayOn(t, g, 3, DefaultConfig(1))
	budget := 6 * int(math.Ceil(math.Log2(idx.AspectRatio()+2)))
	worst := 1.0
	for entry := range o.Members() {
		e := o.Members()[entry]
		for target := 0; target < idx.N(); target++ {
			res, err := o.NearestMember(e, target, budget+idx.N())
			if err != nil {
				t.Fatalf("entry %d target %d: %v", e, target, err)
			}
			_, bestD := o.TrueNearest(target)
			if bestD == 0 {
				if res.Dist != 0 {
					t.Fatalf("target %d is a member but query settled at distance %v", target, res.Dist)
				}
				continue
			}
			if ratio := res.Dist / bestD; ratio > worst {
				worst = ratio
			}
		}
	}
	// Meridian's guarantee is constant-factor proximity; with PerRing=8
	// on a small grid it is near-exact.
	if worst > 3 {
		t.Errorf("worst approximation ratio %v, want <= 3", worst)
	}
	t.Logf("worst nearest-member approximation ratio: %.3f", worst)
}

func TestNearestMemberOnExponentialLine(t *testing.T) {
	line, err := metric.ExponentialLine(40, 2)
	if err != nil {
		t.Fatal(err)
	}
	idx, o := overlayOn(t, line, 2, DefaultConfig(3))
	budget := 8 * int(math.Ceil(math.Log2(idx.AspectRatio())))
	for target := 0; target < idx.N(); target++ {
		res, err := o.NearestMember(o.Members()[0], target, budget)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if res.Hops > budget {
			t.Fatalf("target %d took %d hops", target, res.Hops)
		}
		_, bestD := o.TrueNearest(target)
		if bestD == 0 && res.Dist > 0 {
			t.Fatalf("member target %d missed (dist %v)", target, res.Dist)
		}
		if bestD > 0 && res.Dist/bestD > 4 {
			t.Fatalf("target %d: ratio %v", target, res.Dist/bestD)
		}
	}
}

func TestNearestMemberClimbsMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	idx, o := overlayOn(t, metric.UniformCube(80, 2, 100, rng), 2, DefaultConfig(7))
	res, err := o.NearestMember(o.Members()[0], 79, 500)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, m := range res.Path {
		d := idx.Dist(m, 79)
		if d >= prev {
			t.Fatalf("climb not monotone at member %d: %v >= %v", m, d, prev)
		}
		prev = d
	}
}

func TestMultiRange(t *testing.T) {
	g, err := metric.NewGrid(7, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	idx, o := overlayOn(t, g, 2, DefaultConfig(11))
	target := 24
	r := 2.5
	got, err := o.MultiRange(o.Members()[0], target, r, 500)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for _, m := range o.Members() {
		if idx.Dist(m, target) <= r {
			want[m] = true
		}
	}
	if len(got) == 0 {
		t.Fatal("no members found in range")
	}
	for _, m := range got {
		if !want[m] {
			t.Errorf("member %d reported but outside range", m)
		}
	}
	// Rings bound discovery; require substantial recall (full recall needs
	// denser rings than PerRing=8 guarantees).
	if float64(len(got)) < 0.7*float64(len(want)) {
		t.Errorf("recall %d/%d too low", len(got), len(want))
	}
}

func TestConfigValidation(t *testing.T) {
	g, _ := metric.NewGrid(3, 2, metric.L2)
	idx := metric.NewIndex(g)
	bad := []Config{
		{RingBase: 1, PerRing: 4},
		{RingBase: 2, PerRing: 0},
		{RingBase: 0.5, PerRing: 4},
	}
	for _, cfg := range bad {
		if _, err := New(idx, []int{0}, cfg); err == nil {
			t.Errorf("accepted config %+v", cfg)
		}
	}
	if _, err := New(idx, nil, DefaultConfig(1)); err == nil {
		t.Error("accepted empty member set")
	}
	if _, err := New(idx, []int{99}, DefaultConfig(1)); err == nil {
		t.Error("accepted out-of-range member")
	}
	o, err := New(idx, []int{0, 4, 4, 8}, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Members()) != 3 {
		t.Errorf("duplicates not dropped: %v", o.Members())
	}
	if _, err := o.NearestMember(1, 2, 10); err == nil {
		t.Error("accepted non-member entry")
	}
	if o.MaxRingSize() < 1 {
		t.Error("no ring pointers")
	}
}

func TestRingSparsity(t *testing.T) {
	// PerRing bounds retained pointers per annulus: total pointers per
	// member stay O(PerRing · log ∆) even when the member set is large.
	rng := rand.New(rand.NewSource(9))
	idx, o := overlayOn(t, metric.UniformCube(150, 2, 100, rng), 1, DefaultConfig(13))
	bound := o.cfg.PerRing * (int(math.Ceil(math.Log2(idx.AspectRatio()))) + 2)
	if o.MaxRingSize() > bound {
		t.Errorf("MaxRingSize %d exceeds PerRing·log∆ bound %d", o.MaxRingSize(), bound)
	}
}

// TestSameSeedSameRings pins build determinism: every replica rebuilds
// its overlay from the shared seed, so two builds must retain exactly
// the same ring members (sampled buckets included — n is large enough
// that most annuli exceed PerRing).
func TestSameSeedSameRings(t *testing.T) {
	space := metric.UniformCube(512, 2, 100, rand.New(rand.NewSource(3)))
	_, first := overlayOn(t, space, 4, DefaultConfig(17))
	for rebuild := 0; rebuild < 4; rebuild++ {
		_, again := overlayOn(t, space, 4, DefaultConfig(17))
		for _, m := range first.Members() {
			a, b := first.Ring(m), again.Ring(m)
			if len(a) != len(b) {
				t.Fatalf("rebuild %d: member %d retained %d pointers, first build %d", rebuild, m, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("rebuild %d: member %d ring differs at %d: %d vs %d", rebuild, m, i, b[i], a[i])
				}
			}
		}
	}
}

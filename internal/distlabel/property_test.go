package distlabel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rings/internal/metric"
)

// Property: the full Theorem 3.4 pipeline — construction, label-only
// decoding, (1+δ) upper bounds — holds across random point clouds and
// seeds, not just the fixed fixtures.
func TestSchemePropertyRandomClouds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, nRaw, dimRaw uint8) bool {
		n := int(nRaw%24) + 8
		dim := int(dimRaw%2) + 1
		rng := rand.New(rand.NewSource(seed))
		idx := metric.NewIndex(metric.UniformCube(n, dim, 100, rng))
		s, err := New(idx, 0.5)
		if err != nil {
			return false
		}
		st, err := s.VerifyAllPairs()
		return err == nil && st.BadPairs == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: exponential lines with random bases (the adversarial aspect
// regime) stay within the guarantee.
func TestSchemePropertyExpLines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(baseRaw uint8) bool {
		base := 2 + float64(baseRaw%40)
		line, err := metric.ExponentialLine(20, base)
		if err != nil {
			return false
		}
		s, err := New(metric.NewIndex(line), 0.5)
		if err != nil {
			return false
		}
		st, err := s.VerifyAllPairs()
		return err == nil && st.BadPairs == 0 && st.WorstUpperSlack <= 1.5+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Labels are position-independent: estimating (u,v) and (v,u) agree.
func TestEstimateSymmetry(t *testing.T) {
	g, err := metric.NewGrid(5, 2, metric.L1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(metric.NewIndex(g), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 3 {
		for v := 0; v < g.N(); v += 4 {
			if u == v {
				continue
			}
			lo1, hi1, ok1 := Estimate(s.Label(u), s.Label(v))
			lo2, hi2, ok2 := Estimate(s.Label(v), s.Label(u))
			if ok1 != ok2 || lo1 != lo2 || hi1 != hi2 {
				t.Fatalf("asymmetric estimate (%d,%d): (%v,%v,%v) vs (%v,%v,%v)",
					u, v, lo1, hi1, ok1, lo2, hi2, ok2)
			}
		}
	}
}

// Translate is total: out-of-range levels and unknown keys return -1
// rather than panicking.
func TestTranslateTotality(t *testing.T) {
	g, err := metric.NewGrid(4, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(metric.NewIndex(g), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lab := s.Label(0)
	if got := lab.Translate(-1, 0, 0); got != -1 {
		t.Errorf("Translate(-1,...) = %d", got)
	}
	if got := lab.Translate(len(lab.Trans), 0, 0); got != -1 {
		t.Errorf("Translate(past-end) = %d", got)
	}
	if got := lab.Translate(0, 1<<20, 0); got != -1 {
		t.Errorf("Translate(bogus host) = %d", got)
	}
	if d := lab.HostDist(-1); d == d { // expect +Inf (d==d false only for NaN)
		if d != d || d < 1e300 {
			t.Errorf("HostDist(-1) = %v, want +Inf", d)
		}
	}
}

// Labels of unequal depth — a truncated or cross-scheme wire label
// arriving through the public API — must be answered, not indexed out of
// range: the walk stops at the shallower label, on either side, and
// still returns the sandwich of what it did harvest.
func TestEstimateOnTruncatedLabels(t *testing.T) {
	g, err := metric.NewGrid(5, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	idx := metric.NewIndex(g)
	s, err := New(idx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	full := s.Label(3)
	if len(full.Trans) < 2 {
		t.Skip("labels too shallow to truncate")
	}
	noMaps, shallow := *full, *full
	noMaps.Trans = nil // zoom pointers without a single translation map
	shallow.Trans, shallow.ZoomPsi = full.Trans[:1], full.ZoomPsi[:1]
	for _, cut := range []*Label{&noMaps, &shallow} {
		for v := 0; v < idx.N(); v++ {
			d := idx.Dist(3, v)
			for _, pair := range [][2]*Label{{cut, s.Label(v)}, {s.Label(v), cut}} {
				lo, up, ok := Estimate(pair[0], pair[1])
				if !ok || lo > d*(1+1e-9) || up < d*(1-1e-9) {
					t.Fatalf("truncated label vs node %d: (%v, %v, %v) does not sandwich %v", v, lo, up, ok, d)
				}
			}
		}
	}
}

// The keys of a level whose ψ is the identity translate through one
// list; FillLabel stores it once and the keys alias it.
func TestIdentityKeysShareOneList(t *testing.T) {
	g, err := metric.NewGrid(5, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(metric.NewIndex(g), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	keys, lists := 0, 0
	for u := 0; u < g.N(); u++ {
		for _, lm := range s.Label(u).Trans {
			first := make(map[*TransEntry]bool)
			for _, entries := range lm.Lists {
				first[&entries[0]] = true
			}
			keys += len(lm.Keys)
			lists += len(first)
		}
	}
	if lists == 0 || lists >= keys {
		t.Fatalf("%d lists back %d keys: identity keys do not share", lists, keys)
	}
}

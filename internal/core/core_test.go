package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rings/internal/metric"
	"rings/internal/nets"
)

func TestEnumBasics(t *testing.T) {
	e := NewEnum([]int{5, 1, 3, 1, 5})
	if e.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (dedup)", e.Size())
	}
	want := []int{1, 3, 5}
	for i, v := range want {
		if e.Node(i) != v {
			t.Errorf("Node(%d) = %d, want %d", i, e.Node(i), v)
		}
		idx, ok := e.IndexOf(v)
		if !ok || idx != i {
			t.Errorf("IndexOf(%d) = %d,%v, want %d,true", v, idx, ok, i)
		}
		if !e.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	if _, ok := e.IndexOf(2); ok {
		t.Error("IndexOf(2) reported present")
	}
	if e.Contains(99) {
		t.Error("Contains(99) = true")
	}
}

func TestEnumOrdered(t *testing.T) {
	e := NewEnumOrdered([]int{7, 2}, []int{2, 9, 1})
	// Group 1 sorted: [2 7]; group 2 sorted minus dups: [1 9].
	want := []int{2, 7, 1, 9}
	if e.Size() != len(want) {
		t.Fatalf("Size = %d, want %d", e.Size(), len(want))
	}
	for i, v := range want {
		if e.Node(i) != v {
			t.Errorf("Node(%d) = %d, want %d", i, e.Node(i), v)
		}
		if j, ok := e.IndexOf(v); !ok || j != i {
			t.Errorf("IndexOf(%d) = %d,%v", v, j, ok)
		}
	}
	// Shared-prefix property: two hosts with equal first groups agree on
	// the prefix indices regardless of later groups.
	a := NewEnumOrdered([]int{4, 0}, []int{11})
	b := NewEnumOrdered([]int{0, 4}, []int{23, 5})
	for _, v := range []int{0, 4} {
		ia, _ := a.IndexOf(v)
		ib, _ := b.IndexOf(v)
		if ia != ib {
			t.Errorf("shared prefix index differs for %d: %d vs %d", v, ia, ib)
		}
	}
}

// TestEnumIndexMatchesMapReference: IndexOf and Contains answer what a
// map built from Nodes() answers, for every constructor, over empty,
// duplicate-laden and overlapping groups, for every id in and around the
// enumerated range — absent and negative ids give (0, false).
func TestEnumIndexMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randGroup := func() []int {
		g := make([]int, rng.Intn(12))
		for i := range g {
			g[i] = rng.Intn(30)
		}
		return g
	}
	enums := map[string]Enum{
		"empty":                       NewEnum(nil),
		"from-sorted-empty":           NewEnumFromSorted(nil),
		"from-sorted":                 NewEnumFromSorted([]int{0, 3, 4, 9, 28}),
		"ordered-no-groups":           NewEnumOrdered(),
		"ordered-empty-groups":        NewEnumOrdered(nil, []int{}, nil),
		"ordered-empty-middle-group":  NewEnumOrdered([]int{8, 3}, nil, []int{1, 9, 3}),
		"ordered-later-group-all-dup": NewEnumOrdered([]int{5, 1, 5}, []int{1, 5, 5}, []int{0}),
		"ordered-disjoint-descending": NewEnumOrdered([]int{20, 21}, []int{10, 11}, []int{0, 1}),
	}
	for k := 0; k < 200; k++ {
		enums[fmt.Sprintf("random-%d", k)] = NewEnum(randGroup())
		groups := make([][]int, rng.Intn(4))
		for i := range groups {
			groups[i] = randGroup()
		}
		enums[fmt.Sprintf("random-ordered-%d", k)] = NewEnumOrdered(groups...)
	}
	for name, e := range enums {
		ref := make(map[int]int)
		for i, v := range e.Nodes() {
			if _, dup := ref[v]; dup {
				t.Fatalf("%s: %d enumerated twice in %v", name, v, e.Nodes())
			}
			ref[v] = i
		}
		for v := -3; v < 34; v++ {
			want, wantOK := ref[v]
			got, ok := e.IndexOf(v)
			if got != want || ok != wantOK {
				t.Fatalf("%s %v: IndexOf(%d) = %d,%v, want %d,%v", name, e.Nodes(), v, got, ok, want, wantOK)
			}
			if e.Contains(v) != wantOK {
				t.Fatalf("%s %v: Contains(%d) = %v", name, e.Nodes(), v, !wantOK)
			}
		}
	}
}

func TestEnumCanonicalAcrossHosts(t *testing.T) {
	// The paper's shared level-0 trick: equal sets enumerate identically
	// no matter the insertion order.
	a := NewEnum([]int{9, 2, 4})
	b := NewEnum([]int{4, 9, 2})
	for i := 0; i < a.Size(); i++ {
		if a.Node(i) != b.Node(i) {
			t.Fatalf("enumerations differ at %d", i)
		}
	}
}

func buildGridRings(t *testing.T) (metric.BallIndex, *nets.Hierarchy, *Collection) {
	t.Helper()
	g, err := metric.NewGrid(6, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	idx := metric.NewIndex(g)
	h, err := nets.NewHierarchy(idx, nets.RoutingScales(idx))
	if err != nil {
		t.Fatal(err)
	}
	delta := 0.2
	radii := make([]float64, h.NumLevels())
	for j := range radii {
		radii[j] = 4 * h.Scale(j) / delta
	}
	c, err := BuildNetRings(idx, h, radii)
	if err != nil {
		t.Fatal(err)
	}
	return idx, h, c
}

func TestBuildNetRingsInvariants(t *testing.T) {
	idx, h, c := buildGridRings(t)
	if c.NumLevels() != h.NumLevels() {
		t.Fatalf("NumLevels = %d, want %d", c.NumLevels(), h.NumLevels())
	}
	for u := 0; u < idx.N(); u++ {
		for j := 0; j < c.NumLevels(); j++ {
			ring := c.Ring(u, j)
			for _, v := range ring.Nodes() {
				if !h.Contains(j, v) {
					t.Fatalf("ring (%d,%d) member %d not a level-%d net point", u, j, v, j)
				}
				if idx.Dist(u, v) > c.Radii[j] {
					t.Fatalf("ring (%d,%d) member %d outside radius", u, j, v)
				}
			}
			// Completeness: every net point in the ball is in the ring.
			for _, p := range h.Level(j) {
				if idx.Dist(u, p) <= c.Radii[j] && !ring.Contains(p) {
					t.Fatalf("ring (%d,%d) missing net point %d", u, j, p)
				}
			}
		}
	}
	if c.MaxRingSize() < 1 {
		t.Error("MaxRingSize < 1")
	}
	if c.TotalPointers() < idx.N() {
		t.Error("TotalPointers suspiciously small")
	}
}

func TestLevelZeroRingsCoincide(t *testing.T) {
	idx, _, c := buildGridRings(t)
	// Radius r_0 = 4*diam/delta >= diam, so every 0-ring is the whole
	// level-0 net, identically enumerated (the shared-enumeration trick).
	first := c.Ring(0, 0)
	for u := 1; u < idx.N(); u++ {
		ring := c.Ring(u, 0)
		if ring.Size() != first.Size() {
			t.Fatalf("node %d level-0 ring size %d != %d", u, ring.Size(), first.Size())
		}
		for i := 0; i < ring.Size(); i++ {
			if ring.Node(i) != first.Node(i) {
				t.Fatalf("node %d level-0 enumeration differs at %d", u, i)
			}
		}
	}
}

// TestFigure2TranslationTriangle reproduces Figure 2: for every triangle
// (u, f, w) with f ∈ Y_uj and w ∈ Y_(f,j+1) ∩ Y_(u,j+1), the translation
// ζ_uj filled from u's rings by Enum.IndexOf satisfies
// ζ_uj(ϕ_uj(f), ϕ_(f,j+1)(w)) = ϕ_(u,j+1)(w), and names w there; for w
// outside Y_(u,j+1) it holds the absent mark.
func TestFigure2TranslationTriangle(t *testing.T) {
	const absent = -1
	idx, _, c := buildGridRings(t)
	for u := 0; u < idx.N(); u += 7 {
		for j := 0; j+1 < c.NumLevels(); j++ {
			uj, uj1 := c.Ring(u, j), c.Ring(u, j+1)
			zeta := make([][]int, uj.Size())
			for a := range zeta {
				fj1 := c.Ring(uj.Node(a), j+1)
				zeta[a] = make([]int, fj1.Size())
				for b := range zeta[a] {
					zeta[a][b] = absent
					if m, ok := uj1.IndexOf(fj1.Node(b)); ok {
						zeta[a][b] = m
					}
				}
			}
			// Verify the triangle identity for every (f, w).
			for a := 0; a < uj.Size(); a++ {
				f := uj.Node(a)
				fj1 := c.Ring(f, j+1)
				for b := 0; b < fj1.Size(); b++ {
					w := fj1.Node(b)
					got := zeta[a][b]
					want, inU := uj1.IndexOf(w)
					if inU && (got != want || uj1.Node(got) != w) {
						t.Fatalf("u=%d j=%d f=%d w=%d: ζ=%d, want %d", u, j, f, w, got, want)
					}
					if !inU && got != absent {
						t.Fatalf("u=%d j=%d f=%d w=%d: ζ=%d, want absent", u, j, f, w, got)
					}
				}
			}
		}
	}
}

func TestRingsNeighborsUnion(t *testing.T) {
	r := Rings{NewEnum([]int{3, 1}), NewEnum([]int{1, 7})}
	got := r.Neighbors()
	want := []int{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

// Property: enumeration is a bijection — IndexOf inverts Node for random
// node sets.
func TestEnumBijectionProperty(t *testing.T) {
	f := func(nodes []uint16) bool {
		ids := make([]int, len(nodes))
		for i, v := range nodes {
			ids[i] = int(v)
		}
		e := NewEnum(ids)
		for i := 0; i < e.Size(); i++ {
			j, ok := e.IndexOf(e.Node(i))
			if !ok || j != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildNetRingsRejectsMismatch(t *testing.T) {
	g, _ := metric.NewGrid(3, 2, metric.L2)
	idx := metric.NewIndex(g)
	h, err := nets.NewHierarchy(idx, nets.RoutingScales(idx))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildNetRings(idx, h, []float64{1}); err == nil && h.NumLevels() != 1 {
		t.Error("accepted mismatched radii")
	}
}

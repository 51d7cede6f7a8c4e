package routing

import (
	"reflect"
	"testing"

	"rings/internal/core"
	"rings/internal/workload"
)

// referenceFill is the map-probing fill the merge-walk fillNode replaces:
// self slots by Enum.IndexOf, first hops by the overlay's linear
// EdgeIndex, ζ cells by IndexOf into u's next ring.
func referenceFill(t *testing.T, s *Thm21, u int) (zeta []*core.Table, hops [][]int32, self []int32) {
	t.Helper()
	levels := s.hier.NumLevels()
	for j := 0; j < levels; j++ {
		ring := s.rings.Ring(u, j)
		row := make([]int32, ring.Size())
		for a := range row {
			row[a] = -1
			if v := ring.Node(a); v != u {
				row[a] = int32(s.g.EdgeIndex(u, v))
			}
		}
		hops = append(hops, row)
		slot := int32(-1)
		if i, ok := ring.IndexOf(u); ok {
			slot = int32(i)
		}
		self = append(self, slot)
	}
	for j := 0; j+1 < levels; j++ {
		ring, next := s.rings.Ring(u, j), s.rings.Ring(u, j+1)
		widths := make([]int, ring.Size())
		for a := range widths {
			widths[a] = s.zoomRings[j+1][ring.Node(a)].Size()
		}
		table := core.NewTable(widths, next.Size())
		for a := range widths {
			zr := s.zoomRings[j+1][ring.Node(a)]
			for b := 0; b < zr.Size(); b++ {
				if m, ok := next.IndexOf(zr.Node(b)); ok {
					if err := table.Set(a, b, m); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		zeta = append(zeta, table)
	}
	return zeta, hops, self
}

// TestThm21FillMatchesIndexOfReference pins NewThm21Metric's ζ tables,
// first hops and self slots against referenceFill on all four families.
func TestThm21FillMatchesIndexOfReference(t *testing.T) {
	for _, spec := range []workload.MetricSpec{
		{Name: "grid", Side: 16},
		{Name: "cube", N: 256, Seed: 4},
		{Name: "expline", N: 128, LogAspect: 60},
		{Name: "latency", N: 256, Seed: 1},
	} {
		inst, err := workload.Metric(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewThm21Metric(inst.Idx, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		bits := 0
		for u := 0; u < inst.Idx.N(); u++ {
			zeta, hops, self := referenceFill(t, s, u)
			if !reflect.DeepEqual(s.firstHop[u], hops) {
				t.Fatalf("%s: first hops of %d = %v, want %v", inst.Name, u, s.firstHop[u], hops)
			}
			if !reflect.DeepEqual(s.selfIdx[u], self) {
				t.Fatalf("%s: self slots of %d = %v, want %v", inst.Name, u, s.selfIdx[u], self)
			}
			if !reflect.DeepEqual(s.zeta[u], zeta) {
				t.Fatalf("%s: ζ tables of %d differ from the IndexOf fill", inst.Name, u)
			}
			for _, tb := range zeta {
				bits += tb.Bits()
			}
		}
		if bits == 0 {
			t.Fatalf("%s: no ζ cells to compare", inst.Name)
		}
	}
}

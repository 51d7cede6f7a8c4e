package routing

import (
	"reflect"
	"testing"

	"rings/internal/workload"
)

// absentCell marks a ζ cell whose w is not in u's next ring, in
// referenceFill's and arenaNode's shapes (the arena stores nullCell).
const absentCell = -1

// referenceFill is the map-probing fill the arena's merge-walk fillNode
// replaces: self slots by Enum.IndexOf, first hops by the overlay's
// linear EdgeIndex, ζ cells by IndexOf into u's next ring (absentCell
// where w is not in it).
func referenceFill(s *Thm21, b *thm21Build, u int) (zeta [][][]int32, hops [][]int32, self []int32) {
	levels := b.hier.NumLevels()
	for j := 0; j < levels; j++ {
		ring := b.rings.Ring(u, j)
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
		ring, next := b.rings.Ring(u, j), b.rings.Ring(u, j+1)
		table := make([][]int32, ring.Size())
		for a := range table {
			zr := b.zoom[j+1][ring.Node(a)]
			table[a] = make([]int32, zr.Size())
			for c := range table[a] {
				table[a][c] = absentCell
				if m, ok := next.IndexOf(zr.Node(c)); ok {
					table[a][c] = int32(m)
				}
			}
		}
		zeta = append(zeta, table)
	}
	return zeta, hops, self
}

// arenaNode reads node u's first hops, self slots and ζ tables back out
// of the arena in referenceFill's shapes.
func arenaNode(s *Thm21, u int) (zeta [][][]int32, hops [][]int32, self []int32) {
	for j := 0; j < s.levels; j++ {
		k := u*s.levels + j
		lo, hi := s.ring[k], s.ring[k+1]
		hops = append(hops, append([]int32{}, s.hops[lo:hi]...))
		self = append(self, s.self[k])
		if j+1 == s.levels {
			continue
		}
		table := make([][]int32, hi-lo)
		for a := range table {
			table[a] = []int32{}
			for _, c := range s.cells[s.row[lo+uint32(a)]:s.row[lo+uint32(a)+1]] {
				v := int32(c)
				if c == nullCell {
					v = absentCell
				}
				table[a] = append(table[a], v)
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
		s, b, err := newThm21Metric(inst.Idx, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for u := 0; u < inst.Idx.N(); u++ {
			wantZeta, wantHops, wantSelf := referenceFill(s, b, u)
			zeta, hops, self := arenaNode(s, u)
			if !reflect.DeepEqual(hops, wantHops) {
				t.Fatalf("%s: first hops of %d = %v, want %v", inst.Name, u, hops, wantHops)
			}
			if !reflect.DeepEqual(self, wantSelf) {
				t.Fatalf("%s: self slots of %d = %v, want %v", inst.Name, u, self, wantSelf)
			}
			if !reflect.DeepEqual(zeta, wantZeta) {
				t.Fatalf("%s: ζ tables of %d differ from the IndexOf fill", inst.Name, u)
			}
			for _, table := range wantZeta {
				for _, row := range table {
					cells += len(row)
				}
			}
		}
		if cells == 0 {
			t.Fatalf("%s: no ζ cells to compare", inst.Name)
		}
	}
}

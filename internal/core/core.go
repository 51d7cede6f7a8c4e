// Package core implements the paper's unifying technique: rings of
// neighbors, together with the bookkeeping that makes them usable without
// global node identifiers — host enumerations and translation functions.
//
// A ring collection assigns every node u, for each level j, a ring
// Y_uj = B_u(r_j) ∩ G_j: the net points of scale j that fall inside a ball
// around u whose radius r_j is a multiple of the net scale. The two
// collections the paper combines are (Section 1, "The unifying
// technique"):
//
//   - radius-scaled rings, where ball radii grow exponentially and ring
//     members come from nets (deterministic; Sections 2–4), and
//   - cardinality-scaled rings, where ball cardinalities grow
//     exponentially and members are sampled (Section 5; built in package
//     smallworld on top of the primitives here).
//
// A host enumeration ϕ_u is an arbitrary fixed bijection from u's
// neighbors to 0..k-1; a translation function ζ_uj lets u convert "w is
// the i-th (j+1)-ring neighbor of my j-ring neighbor f" into w's index in
// u's own (j+1)-ring — Figure 2 of the paper. Those two tools replace
// ceil(log n)-bit global identifiers with ceil(log K)-bit local ones,
// which is where the paper's space savings come from.
package core

import (
	"fmt"
	"slices"
	"sort"

	"rings/internal/bitio"
	"rings/internal/metric"
	"rings/internal/nets"
	"rings/internal/par"
)

// Enum is a host enumeration: a fixed bijection between a set of node ids
// and the integers 0..Size()-1. The canonical order is ascending node id,
// which makes enumerations of equal sets identical across hosts — the
// property the paper uses for the shared level-0 enumeration. An
// enumeration is its node list and nothing else: the list is one
// ascending run, or (NewEnumOrdered) one per non-empty group, and
// IndexOf binary-searches each run.
type Enum struct {
	nodes []int
	// ends[k] is where run k ends, for every run but the last; nil for
	// one run.
	ends []int
}

// NewEnum builds an enumeration of the given nodes (deduplicated, sorted).
func NewEnum(nodes []int) Enum {
	uniq := slices.Clone(nodes)
	slices.Sort(uniq)
	return Enum{nodes: slices.Compact(uniq)}
}

// NewEnumOrdered builds an enumeration from ordered groups: each group is
// sorted canonically, groups are concatenated in order, and nodes already
// enumerated by an earlier group are skipped. Theorem 3.4 uses this to put
// the shared level-0 neighbors first, so their indices coincide across all
// hosts while later levels stay host-specific.
func NewEnumOrdered(groups ...[]int) Enum {
	sortedGroups := make([][]int, len(groups))
	for gi, g := range groups {
		sorted := append([]int(nil), g...)
		sort.Ints(sorted)
		sortedGroups[gi] = sorted
	}
	return NewEnumOrderedSorted(sortedGroups...)
}

// NewEnumOrderedSorted is NewEnumOrdered for groups that are already
// sorted ascending (duplicates allowed) — the allocation-lean entry the
// parallel label build uses with its merge-sorted scratch groups. A node
// of a later group is a duplicate when the earlier runs hold it.
func NewEnumOrderedSorted(groups ...[]int) Enum {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	e := Enum{nodes: make([]int, 0, total)}
	for _, sorted := range groups {
		start := len(e.nodes)
		for i, v := range sorted {
			if i > 0 && v == sorted[i-1] {
				continue
			}
			if _, dup := e.IndexOf(v); dup {
				continue
			}
			if start > 0 && len(e.nodes) == start {
				e.ends = append(e.ends, start)
			}
			e.nodes = append(e.nodes, v)
		}
	}
	return e
}

// NewEnumFromSorted builds an enumeration from a slice that is already
// sorted ascending and duplicate-free, taking ownership of it (no copy,
// no sort). The caller must not modify nodes afterwards.
func NewEnumFromSorted(nodes []int) Enum { return Enum{nodes: nodes} }

// Size reports the number of enumerated nodes.
func (e Enum) Size() int { return len(e.nodes) }

// Node returns the node with enumeration index i.
func (e Enum) Node(i int) int { return e.nodes[i] }

// Nodes returns the enumerated nodes in order (shared; do not modify).
func (e Enum) Nodes() []int { return e.nodes }

// IndexOf reports the enumeration index of a node: (0, false) when it is
// not enumerated.
func (e Enum) IndexOf(node int) (int, bool) {
	start := 0
	for k := 0; k <= len(e.ends); k++ {
		end := len(e.nodes)
		if k < len(e.ends) {
			end = e.ends[k]
		}
		if i, ok := slices.BinarySearch(e.nodes[start:end], node); ok {
			return start + i, true
		}
		start = end
	}
	return 0, false
}

// Contains reports whether the node is enumerated.
func (e Enum) Contains(node int) bool {
	_, ok := e.IndexOf(node)
	return ok
}

// Rings is one node's rings of neighbors: Rings[j] enumerates the j-ring.
type Rings []Enum

// Neighbors returns the union of all rings, deduplicated and sorted.
func (r Rings) Neighbors() []int {
	var all []int
	for _, ring := range r {
		all = append(all, ring.Nodes()...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// Collection is a full rings-of-neighbors structure: per node, per level.
type Collection struct {
	// ByNode[u][j] is node u's j-ring.
	ByNode []Rings
	// Radii[j] is the ball radius r_j shared by all j-rings.
	Radii []float64
}

// BuildNetRings constructs the deterministic radius-scaled collection of
// Section 2: ring j of node u is B_u(radii[j]) ∩ (level-j net of h).
// The hierarchy's level j and radii[j] must correspond.
func BuildNetRings(idx metric.BallIndex, h *nets.Hierarchy, radii []float64) (*Collection, error) {
	if len(radii) != h.NumLevels() {
		return nil, fmt.Errorf("core: %d radii for %d net levels", len(radii), h.NumLevels())
	}
	n := idx.N()
	c := &Collection{
		ByNode: make([]Rings, n),
		Radii:  append([]float64(nil), radii...),
	}
	par.For(0, n, func(u int) {
		rings := make(Rings, len(radii))
		for j, r := range radii {
			rings[j] = NewEnum(h.InBall(j, u, r))
		}
		c.ByNode[u] = rings
	})
	return c, nil
}

// MaxRingSize reports the paper's K: the largest ring cardinality.
func (c *Collection) MaxRingSize() int {
	k := 0
	for _, rings := range c.ByNode {
		for _, ring := range rings {
			if ring.Size() > k {
				k = ring.Size()
			}
		}
	}
	return k
}

// TotalPointers reports the total number of neighbor pointers stored
// across all nodes and rings (the structure's sparsity).
func (c *Collection) TotalPointers() int {
	total := 0
	for _, rings := range c.ByNode {
		for _, ring := range rings {
			total += ring.Size()
		}
	}
	return total
}

// Ring returns node u's j-ring.
func (c *Collection) Ring(u, j int) Enum { return c.ByNode[u][j] }

// NumLevels reports the number of ring levels.
func (c *Collection) NumLevels() int { return len(c.Radii) }

// Table is a dense translation function: Table[a][b] is either a
// translated index or Null. In the paper's ζ_uj, a indexes u's j-ring,
// b indexes the (j+1)-ring of the a-th j-ring neighbor, and the value is
// an index into u's (j+1)-ring.
type Table struct {
	cells [][]int32
	// TargetSize is the size of the enumeration the values index into
	// (used for bit accounting: each cell takes WidthFor(TargetSize+1)
	// bits, the +1 covering Null).
	TargetSize int
}

// Null marks an absent translation.
const Null = -1

// NewTable allocates a rows x variable-width table filled with Null.
// widths[a] is the number of b-values for outer index a.
// The rows share one backing array.
func NewTable(widths []int, targetSize int) *Table {
	total := 0
	for _, w := range widths {
		total += w
	}
	arena := make([]int32, total)
	for i := range arena {
		arena[i] = Null
	}
	cells := make([][]int32, len(widths))
	for a, w := range widths {
		cells[a] = arena[:w:w]
		arena = arena[w:]
	}
	return &Table{cells: cells, TargetSize: targetSize}
}

// Set stores a translation.
func (t *Table) Set(a, b, value int) error {
	if a < 0 || a >= len(t.cells) || b < 0 || b >= len(t.cells[a]) {
		return fmt.Errorf("core: table index (%d,%d) out of range", a, b)
	}
	if value < Null || value >= t.TargetSize {
		return fmt.Errorf("core: table value %d out of range [%d,%d)", value, Null, t.TargetSize)
	}
	t.cells[a][b] = int32(value)
	return nil
}

// Get reports the translation for (a, b); Null when absent or out of
// range (out-of-range b happens legitimately: the packet asks about a
// neighbor of f that u cannot see).
func (t *Table) Get(a, b int) int {
	if a < 0 || a >= len(t.cells) || b < 0 || b >= len(t.cells[a]) {
		return Null
	}
	return int(t.cells[a][b])
}

// Bits reports the exact serialized size: every cell is packed with
// WidthFor(TargetSize+1) bits (Null encoded as TargetSize).
func (t *Table) Bits() int {
	w := bitio.WidthFor(t.TargetSize + 1)
	cells := 0
	for _, row := range t.cells {
		cells += len(row)
	}
	return cells * w
}

// Encode packs the table into the writer, matching Bits().
func (t *Table) Encode(w *bitio.Writer) error {
	width := bitio.WidthFor(t.TargetSize + 1)
	for _, row := range t.cells {
		for _, v := range row {
			val := uint64(t.TargetSize) // Null sentinel
			if v != Null {
				val = uint64(v)
			}
			if err := w.WriteBits(val, width); err != nil {
				return err
			}
		}
	}
	return nil
}

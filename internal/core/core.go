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
// u's own (j+1)-ring — Figure 2 of the paper. ζ_uj is Enum.IndexOf
// into u's (j+1)-ring applied to f's; the router keeps its tables in its
// own flat arena (internal/routing). Those two tools replace
// ceil(log n)-bit global identifiers with ceil(log K)-bit local ones,
// which is where the paper's space savings come from.
package core

import (
	"fmt"
	"slices"
	"sort"

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

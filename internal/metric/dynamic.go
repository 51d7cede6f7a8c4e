package metric

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Subspace is an immutable restriction of a base space to a chosen node
// subset under a chosen ordering: node u of the subspace is node
// Nodes[u] of the base. It is the metric view the churn engine serves —
// the surviving nodes of a mutated universe — and the view a
// from-scratch comparator build indexes, so both constructions see
// literally the same metric.
type Subspace struct {
	base  Space
	nodes []int32
}

var _ Space = (*Subspace)(nil)

// NewSubspace wraps base restricted to the given base-node ids, copying
// the slice (the view must stay immutable under later churn).
func NewSubspace(base Space, nodes []int32) *Subspace {
	return &Subspace{base: base, nodes: append([]int32(nil), nodes...)}
}

// N reports the number of nodes in the view.
func (s *Subspace) N() int { return len(s.nodes) }

// Base returns the underlying full space — distances between base ids
// regardless of membership, which is what churn-repair policies that
// measure from a departed node need.
func (s *Subspace) Base() Space { return s.base }

// Dist reports the base distance between the viewed nodes. The base ids
// are passed through in view order, so spaces whose Dist fixes float
// summation order by id (ClusteredLatency) answer bit-identically for
// every view containing the pair.
func (s *Subspace) Dist(u, v int) float64 {
	return s.base.Dist(int(s.nodes[u]), int(s.nodes[v]))
}

// BaseNode reports the base id behind view node u.
func (s *Subspace) BaseNode(u int) int { return int(s.nodes[u]) }

// BaseNodes returns the view's base ids in view order (shared; callers
// must not modify).
func (s *Subspace) BaseNodes() []int32 { return s.nodes }

// BaseOrder returns the view's node ids sorted by ascending base id —
// the churn-stable consideration order for greedy scans (see
// triangulation.Params.StableOrder): a rename moves a node's view id
// but never its base id, so this order is invariant under churn.
func (s *Subspace) BaseOrder() []int {
	order := make([]int, len(s.nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(s.nodes[a], s.nodes[b]) })
	return order
}

// DynamicIndex is a mutable eager ball index over a subset of a base
// space, maintained incrementally under node churn:
//
//   - Join appends a node at the next internal id and inserts it into
//     every distance-sorted row (one binary search + memmove per row);
//   - Leave removes a node by swapping the last internal id into its
//     slot (the minimal-perturbation id policy: exactly one surviving
//     node is renamed), fixing every row in place.
//
// The maintained rows are, after every mutation, byte-identical to what
// a from-scratch eager Index build over the same Subspace would produce
// — the total (distance, id) order makes every row unique — which is
// what lets the churn engine's localized repair promise byte-identical
// artifacts. Freeze clones the current rows into an immutable *Index
// for publication; the DynamicIndex itself is not safe for concurrent
// use and is not a BallIndex (it mutates).
type DynamicIndex struct {
	base  Space
	nodes []int32
	// sorted[u] is the ascending (dist, id) row of internal node u.
	// Rows are allocated at capacity cap so inserts never reallocate.
	sorted [][]Neighbor
	cap    int
	sorter rowSorter // scratch of buildRow
}

// NewDynamicIndex builds the initial rows over base restricted to
// nodes, with per-row capacity for up to capacity concurrent nodes.
func NewDynamicIndex(base Space, nodes []int32, capacity int) (*DynamicIndex, error) {
	n := len(nodes)
	if capacity < n {
		capacity = n
	}
	d := &DynamicIndex{
		base:   base,
		nodes:  append(make([]int32, 0, capacity), nodes...),
		sorted: make([][]Neighbor, 0, capacity),
		cap:    capacity,
	}
	for u := 0; u < n; u++ {
		d.sorted = append(d.sorted, d.buildRow(u))
	}
	return d, nil
}

// N reports the current node count.
func (d *DynamicIndex) N() int { return len(d.nodes) }

// BaseNode reports the base id behind internal node u.
func (d *DynamicIndex) BaseNode(u int) int { return int(d.nodes[u]) }

// dist is the base distance between internal nodes, in internal-id
// argument order (matching Subspace.Dist bit for bit).
func (d *DynamicIndex) dist(u, v int) float64 {
	return d.base.Dist(int(d.nodes[u]), int(d.nodes[v]))
}

func (d *DynamicIndex) buildRow(u int) []Neighbor {
	n := len(d.nodes)
	row := make([]Neighbor, n, d.cap)
	for v := 0; v < n; v++ {
		row[v] = Neighbor{Node: v, Dist: d.dist(u, v)}
	}
	d.sorter.sortRow(row)
	return row
}

// searchRow returns the insertion position of (dist, node) in row under
// the total neighbor order.
func searchRow(row []Neighbor, dist float64, node int) int {
	p, _ := slices.BinarySearchFunc(row, Neighbor{Node: node, Dist: dist}, neighborCmp)
	return p
}

// insertEntry inserts nb at its sorted position (in place; the row must
// have spare capacity).
func insertEntry(row []Neighbor, nb Neighbor) []Neighbor {
	p := searchRow(row, nb.Dist, nb.Node)
	row = append(row, Neighbor{})
	copy(row[p+1:], row[p:])
	row[p] = nb
	return row
}

// removeEntry removes the entry for (dist, node); it must exist.
func removeEntry(row []Neighbor, dist float64, node int) []Neighbor {
	p := searchRow(row, dist, node)
	copy(row[p:], row[p+1:])
	return row[:len(row)-1]
}

// Join appends baseNode as internal node N()-1, maintaining every row.
func (d *DynamicIndex) Join(baseNode int) (internal int, err error) {
	if len(d.nodes) >= d.cap {
		return 0, fmt.Errorf("metric: dynamic index at capacity %d", d.cap)
	}
	x := len(d.nodes)
	d.nodes = append(d.nodes, int32(baseNode))
	// New row first (it also yields every d(u, x) for the row inserts).
	row := d.buildRow(x)
	for _, nb := range row {
		if nb.Node == x {
			continue
		}
		d.sorted[nb.Node] = insertEntry(d.sorted[nb.Node], Neighbor{Node: x, Dist: nb.Dist})
	}
	d.sorted = append(d.sorted, row)
	return x, nil
}

// Leave removes internal node u by swapping the last internal id into
// its slot. It reports the rename that happened: the node formerly at
// internal id renamedFrom now answers as internal id u (renamedFrom ==
// u when u was the last id, i.e. no rename). The caller must keep at
// least one node.
func (d *DynamicIndex) Leave(u int) (renamedFrom int, err error) {
	n := len(d.nodes)
	if n <= 1 {
		return 0, fmt.Errorf("metric: cannot remove the last node")
	}
	if u < 0 || u >= n {
		return 0, fmt.Errorf("metric: leave of invalid node %d (n=%d)", u, n)
	}
	last := n - 1
	// Fix every surviving row: drop the departed entry, rename last -> u
	// (repositioning within its equal-distance run). The departed row and
	// the renamed row are handled below.
	for v := 0; v < n; v++ {
		if v == u || v == last {
			continue
		}
		row := removeEntry(d.sorted[v], d.dist(v, u), u)
		if u != last {
			dr := d.dist(v, last)
			row = removeEntry(row, dr, last)
			row = insertEntry(row, Neighbor{Node: u, Dist: dr})
		}
		d.sorted[v] = row
	}
	if u != last {
		// The renamed node's own row: drop the departed, rename its self
		// entry (distance 0 stays first: no other entry can sort below it).
		row := removeEntry(d.sorted[last], d.dist(last, u), u)
		row = removeEntry(row, 0, last)
		row = insertEntry(row, Neighbor{Node: u, Dist: 0})
		d.sorted[u] = row
		d.nodes[u] = d.nodes[last]
	}
	d.sorted[last] = nil
	d.sorted = d.sorted[:last]
	d.nodes = d.nodes[:last]
	return last, nil
}

// Freeze clones the current rows into an immutable eager *Index over a
// fresh Subspace copy. The clone uses one backing arena (two
// allocations), so publishing a snapshot costs one memcpy of the row
// data; diameter and minimum distance are recomputed from the rows
// exactly as the eager builder folds them.
func (d *DynamicIndex) Freeze() *Index {
	n := len(d.nodes)
	sub := NewSubspace(d.base, d.nodes)
	idx := &Index{
		space:  sub,
		sorted: make([][]Neighbor, n),
		minPos: math.Inf(1),
	}
	arena := make([]Neighbor, n*n)
	for u := 0; u < n; u++ {
		row := arena[u*n : (u+1)*n : (u+1)*n]
		copy(row, d.sorted[u])
		idx.setRow(u, row)
	}
	return idx
}

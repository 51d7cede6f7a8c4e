// Package nets builds r-nets and nested net hierarchies on finite metric
// spaces (Section 1.1 of the paper).
//
// An r-net is a set S such that every point of the metric is within
// distance r of S (coverage) and any two points of S are at distance at
// least r (separation). Nets exist for every finite metric and can be
// built greedily starting from any r-separated seed set; the paper's
// constructions use two hierarchies of nets:
//
//   - Section 2 (routing): G_j is a (Delta/2^j)-net, getting finer as j
//     grows;
//   - Section 3 (triangulation / labeling): G_j is a 2^j-net, getting
//     coarser as j grows, with the nets nested:
//     G_top ⊆ ... ⊆ G_1 ⊆ G_0 = all nodes.
//
// Hierarchy supports both, via a descending scale slice plus a level
// translation; nesting is what makes the paper's zooming sequences live in
// the right rings (f_ui ∈ G_l ⊆ G_j whenever l >= j).
package nets

import (
	"fmt"
	"math"
	"sort"

	"rings/internal/metric"
)

// Greedy builds an r-net on the indexed space, starting from the given
// r-separated seed nodes (may be nil). Nodes are considered in ascending
// id order, so the construction is deterministic. The returned net is
// sorted by node id.
func Greedy(idx metric.BallIndex, r float64, seeds []int) []int {
	return GreedyOrdered(idx, r, seeds, nil)
}

// GreedyOrdered is Greedy with an explicit consideration order (nil
// means ascending id). The churn engine passes the ascending base-id
// order of its subspace view: the greedy scan is then invariant under
// internal-id renames, so a membership change perturbs the net only
// where the departed or joined node's ball actually reached — the
// precondition for localized repair. The returned net is sorted by node
// id either way.
func GreedyOrdered(idx metric.BallIndex, r float64, seeds []int, order []int) []int {
	n := idx.N()
	covered := make([]bool, n)
	net := make([]int, 0, len(seeds))
	add := func(p int) {
		net = append(net, p)
		for _, nb := range idx.Ball(p, r) {
			covered[nb.Node] = true
		}
	}
	for _, s := range seeds {
		add(s)
	}
	if order == nil {
		for u := 0; u < n; u++ {
			if !covered[u] {
				add(u)
			}
		}
	} else {
		for _, u := range order {
			if !covered[u] {
				add(u)
			}
		}
	}
	sort.Ints(net)
	return net
}

// Verify checks the two r-net properties and returns a descriptive error
// when either fails. Coverage tolerates no slack: the greedy construction
// is exact.
//
// Both properties are checked with one ball enumeration per net point, so
// the cost is O(Σ_p |B_p(r)|) instead of the naive O(n·|net|) distance
// scan: every ball B_p(r) marks the nodes it covers, and a net member
// strictly inside another member's r-ball is exactly a separation
// violation.
func Verify(idx metric.BallIndex, net []int, r float64) error {
	if len(net) == 0 {
		return fmt.Errorf("nets: empty net")
	}
	n := idx.N()
	member := make([]bool, n)
	for _, p := range net {
		if member[p] {
			return fmt.Errorf("nets: duplicate net member %d", p)
		}
		member[p] = true
	}
	covered := make([]bool, n)
	for _, p := range net {
		for _, nb := range idx.Ball(p, r) {
			if member[nb.Node] && nb.Node != p && nb.Dist < r {
				return fmt.Errorf("nets: separation violated: d(%d,%d)=%v < r=%v", p, nb.Node, nb.Dist, r)
			}
			covered[nb.Node] = true
		}
	}
	for u, c := range covered {
		if !c {
			_, d, _ := idx.Nearest(u, net)
			return fmt.Errorf("nets: coverage violated: node %d at distance %v > r=%v from net", u, d, r)
		}
	}
	return nil
}

// Hierarchy is a family of nested nets over descending scales:
// Levels[0] is the coarsest (largest scale), each subsequent level refines
// the previous one and contains it as a subset.
type Hierarchy struct {
	idx    metric.BallIndex
	scales []float64 // descending
	levels [][]int   // levels[k] sorted by id; levels[k] ⊆ levels[k+1]
	member [][]bool  // member[k][u]
	// nearest[k][u] caches the nearest net point of level k to u (-1 =
	// not yet computed).
	nearest [][]int32
}

// NewHierarchy builds nested nets at the given scales, which must be
// strictly descending and positive. Level k is a scales[k]-net; level k+1
// is seeded with level k, which yields the nesting the paper's
// constructions require.
func NewHierarchy(idx metric.BallIndex, scales []float64) (*Hierarchy, error) {
	return NewHierarchyOrdered(idx, scales, nil)
}

// NewHierarchyOrdered is NewHierarchy with an explicit greedy
// consideration order per level (see GreedyOrdered).
func NewHierarchyOrdered(idx metric.BallIndex, scales []float64, order []int) (*Hierarchy, error) {
	if len(scales) == 0 {
		return nil, fmt.Errorf("nets: no scales")
	}
	for i, s := range scales {
		if s <= 0 || (i > 0 && s >= scales[i-1]) {
			return nil, fmt.Errorf("nets: scales must be strictly descending positive, got %v at %d", s, i)
		}
	}
	n := idx.N()
	h := &Hierarchy{
		idx:     idx,
		scales:  append([]float64(nil), scales...),
		levels:  make([][]int, len(scales)),
		member:  make([][]bool, len(scales)),
		nearest: make([][]int32, len(scales)),
	}
	var prev []int
	for k, s := range scales {
		lvl := GreedyOrdered(idx, s, prev, order)
		h.levels[k] = lvl
		mem := make([]bool, n)
		for _, p := range lvl {
			mem[p] = true
		}
		h.member[k] = mem
		nr := make([]int32, n)
		for i := range nr {
			nr[i] = -1
		}
		h.nearest[k] = nr
		prev = lvl
	}
	return h, nil
}

// Over returns the hierarchy with its ball queries answered by idx,
// another index over the same space: the levels, masks and nearest-point
// cache are shared, not copied. A caller that is done with a row-holding
// index moves the hierarchy off it this way, so the rows can be
// collected.
func (h *Hierarchy) Over(idx metric.BallIndex) *Hierarchy {
	moved := *h
	moved.idx = idx
	return &moved
}

// NumLevels reports the number of levels (== number of scales).
func (h *Hierarchy) NumLevels() int { return len(h.scales) }

// Scale reports the net scale of level k.
func (h *Hierarchy) Scale(k int) float64 { return h.scales[k] }

// Level returns the sorted node ids of the level-k net. The slice is
// shared; callers must not modify it.
func (h *Hierarchy) Level(k int) []int { return h.levels[k] }

// Contains reports whether node u belongs to the level-k net.
func (h *Hierarchy) Contains(k, u int) bool { return h.member[k][u] }

// NearestInLevel reports the net point of level k closest to u (u itself
// when u is a member), breaking ties toward the node earlier in u's
// distance-sorted order. Results are cached.
func (h *Hierarchy) NearestInLevel(k, u int) (node int, dist float64) {
	if h.member[k][u] {
		return u, 0
	}
	if c := h.nearest[k][u]; c >= 0 {
		return int(c), h.idx.Dist(u, int(c))
	}
	for nb := range h.idx.Neighbors(u) {
		if h.member[k][nb.Node] {
			h.nearest[k][u] = int32(nb.Node)
			return nb.Node, nb.Dist
		}
	}
	// Unreachable: every level is a covering net of the whole space.
	return -1, math.Inf(1)
}

// InBall returns the members of level k inside the closed ball B_u(r), in
// ascending distance order from u.
func (h *Hierarchy) InBall(k, u int, r float64) []int {
	return h.AppendInBall(nil, k, u, r)
}

// AppendInBall appends the members of level k inside the closed ball
// B_u(r), in ascending distance order from u, to dst and returns it. It
// is the allocation-free form of InBall for callers with scratch
// buffers (the parallel ring and Z-set fills).
func (h *Hierarchy) AppendInBall(dst []int, k, u int, r float64) []int {
	mask := h.member[k]
	for _, nb := range h.idx.Ball(u, r) {
		if mask[nb.Node] {
			dst = append(dst, nb.Node)
		}
	}
	return dst
}

// MaskLevel returns the level-k membership mask, indexed by node id
// (shared; callers must not modify). It lets tight loops test
// membership without the per-call level translation.
func (h *Hierarchy) MaskLevel(k int) []bool { return h.member[k] }

// RoutingScales returns the Section 2 scale sequence s_j = D/2^j for
// j = 0..L-1, where D is the diameter and L is chosen so the last scale is
// strictly below the minimum distance — which forces the finest net to
// contain every node, so zooming sequences terminate at their target.
func RoutingScales(idx metric.BallIndex) []float64 {
	d, dmin := idx.Diameter(), idx.MinDistance()
	if d <= 0 || math.IsInf(dmin, 1) {
		return []float64{1}
	}
	levels := int(math.Floor(math.Log2(d/dmin))) + 2
	if levels < 1 {
		levels = 1
	}
	scales := make([]float64, levels)
	s := d
	for j := range scales {
		scales[j] = s
		s /= 2
	}
	return scales
}

// LabelingScales returns the Section 3 scale sequence: powers of two times
// half the minimum distance, from above the diameter down to dmin/2. The
// finest scale sits strictly below the minimum distance, which forces the
// finest net G_0 to contain every node — the paper's zooming sequences
// need that so f_ui can equal u itself ("it is possible that fui = u").
// The returned slice is descending (coarsest first) to fit NewHierarchy;
// the Ascending view translates the paper's ascending index j (a 2^j-net)
// to a Hierarchy level.
func LabelingScales(idx metric.BallIndex) []float64 {
	d, dmin := idx.Diameter(), idx.MinDistance()
	if d <= 0 || math.IsInf(dmin, 1) {
		return []float64{1}
	}
	base := dmin / 2
	top := int(math.Ceil(math.Log2(d / base)))
	if top < 0 {
		top = 0
	}
	scales := make([]float64, 0, top+1)
	for j := top; j >= 0; j-- {
		scales = append(scales, base*math.Pow(2, float64(j)))
	}
	return scales
}

// Ascending provides the paper's Section 3 view of a hierarchy built from
// LabelingScales: index j counts scales from the finest (j=0, scale
// ~dmin) upward, i.e. G_j is a (dmin*2^j)-net and G_(j+1) ⊆ G_j.
type Ascending struct {
	H *Hierarchy
}

// MaxJ reports the largest valid ascending index.
func (a Ascending) MaxJ() int { return a.H.NumLevels() - 1 }

// level translates ascending index j to the hierarchy level.
func (a Ascending) level(j int) int {
	if j < 0 {
		j = 0
	}
	if j > a.MaxJ() {
		j = a.MaxJ()
	}
	return a.H.NumLevels() - 1 - j
}

// Scale reports the scale of G_j.
func (a Ascending) Scale(j int) float64 { return a.H.Scale(a.level(j)) }

// Contains reports whether u ∈ G_j.
func (a Ascending) Contains(j, u int) bool { return a.H.Contains(a.level(j), u) }

// Members returns the sorted members of G_j (shared slice).
func (a Ascending) Members(j int) []int { return a.H.Level(a.level(j)) }

// Nearest reports the member of G_j closest to u.
func (a Ascending) Nearest(j, u int) (node int, dist float64) {
	return a.H.NearestInLevel(a.level(j), u)
}

// InBall returns the members of G_j within the closed ball B_u(r), sorted
// by ascending distance from u.
func (a Ascending) InBall(j, u int, r float64) []int {
	return a.H.InBall(a.level(j), u, r)
}

// AppendInBall appends the members of G_j within the closed ball B_u(r),
// ascending by distance from u, to dst and returns it (the
// allocation-free InBall).
func (a Ascending) AppendInBall(dst []int, j, u int, r float64) []int {
	return a.H.AppendInBall(dst, a.level(j), u, r)
}

// Mask returns the G_j membership mask indexed by node id (shared; do
// not modify).
func (a Ascending) Mask(j int) []bool { return a.H.MaskLevel(a.level(j)) }

// JForScale clamps and converts a real-valued scale to a valid ascending
// index: the paper's j = max(0, floor(log2 s)) idiom, relative to the
// finest scale. The returned j satisfies Scale(j) <= s whenever s is at
// least the finest scale.
func (a Ascending) JForScale(s float64) int {
	finest := a.H.Scale(a.H.NumLevels() - 1)
	if s <= finest {
		return 0
	}
	j := int(math.Floor(math.Log2(s / finest)))
	if j > a.MaxJ() {
		j = a.MaxJ()
	}
	return j
}

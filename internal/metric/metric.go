// Package metric provides finite metric spaces: the substrate underneath
// every construction in Slivkins' "Distance Estimation and Object Location
// via Rings of Neighbors" (PODC 2005).
//
// A Space is a finite metric on nodes 0..N-1. The package ships the metric
// families used throughout the paper and its motivation:
//
//   - Euclidean point sets (arbitrary dimension, L1/L2/Linf norms),
//   - k-dimensional grids (the small-world substrate of Kleinberg [30]),
//   - the exponential line {1, 2, 4, ..., 2^(n-1)} (the paper's canonical
//     example of a doubling metric with super-polynomial aspect ratio and
//     unbounded grid dimension, Section 1),
//   - clustered "Internet latency" metrics (the Meridian/IDMaps motivation
//     of Sections 1 and 6),
//   - explicit distance matrices.
//
// A BallIndex answers the ball primitives the paper uses everywhere:
// B_u(r), |B_u(r)|, and r_u(eps) — the radius of the smallest closed ball
// around u containing at least eps*n nodes (Section 1.1). Two backends
// implement it: the eager Index, which precomputes every distance-sorted
// neighbor row in parallel, and the memory-bounded LazyIndex, which keeps
// only truncated nearest-neighbor prefixes and extends them on demand.
// New selects a backend from Options; all backends answer every query
// exactly, so constructions are backend-agnostic.
package metric

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"

	"rings/internal/par"
)

// Space is a finite metric space on the node set {0, ..., N()-1}.
//
// Implementations must satisfy the metric axioms: Dist(u,u) == 0,
// Dist(u,v) == Dist(v,u) > 0 for u != v, and the triangle inequality.
// Validate checks these axioms exhaustively for small spaces.
type Space interface {
	// N reports the number of nodes.
	N() int
	// Dist reports the distance between nodes u and v.
	Dist(u, v int) float64
}

// Neighbor is a node paired with its distance from some reference node.
type Neighbor struct {
	Node int
	Dist float64
}

// neighborCmp is the total order every backend sorts by: ascending
// distance, ties broken toward the smaller node id. Because the order is
// total, the k-nearest prefix of a node is unique, which is what lets the
// lazy backend return byte-identical answers to the eager one — and what
// makes any correct sort of a row produce the same bytes.
func neighborCmp(a, b Neighbor) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	}
	return a.Node - b.Node
}

// BallIndex is the ball-query surface every construction in the paper is
// built on: nets, packings, doubling measures, rings of neighbors,
// triangulation, distance labels, routing overlays, small worlds and the
// Meridian-style nearest-neighbor overlay all consume this interface, so
// any backend (eager, memory-bounded lazy, or a future sharded one) can
// serve any construction.
//
// All methods must answer exactly (no approximation), and slices returned
// by Sorted and Ball are shared — callers must not modify them.
type BallIndex interface {
	// Space returns the underlying metric space.
	Space() Space
	// N reports the number of nodes.
	N() int
	// Dist reports the distance between nodes u and v.
	Dist(u, v int) float64
	// Sorted returns all nodes sorted by ascending distance from u,
	// starting with u itself at distance 0. On memory-bounded backends
	// this materializes the full row for u; prefer Neighbors or Ball when
	// only a prefix is needed.
	Sorted(u int) []Neighbor
	// Neighbors iterates nodes in ascending distance order from u,
	// starting with u itself. Breaking early keeps memory-bounded
	// backends from materializing the full row.
	Neighbors(u int) iter.Seq[Neighbor]
	// Ball returns the nodes of the closed ball B_u(r) in ascending
	// distance order.
	Ball(u int, r float64) []Neighbor
	// BallCount reports |B_u(r)|.
	BallCount(u int, r float64) int
	// RadiusForCount reports the radius of the smallest closed ball
	// around u containing at least k nodes (k clamped to [1, n]).
	RadiusForCount(u, k int) float64
	// RadiusForMass reports r_u(eps) under the counting measure.
	RadiusForMass(u int, eps float64) float64
	// Eccentricity reports the distance from u to the farthest node.
	Eccentricity(u int) float64
	// Nearest returns the candidate closest to u (ties toward the
	// smaller id); ok=false when candidates is empty.
	Nearest(u int, candidates []int) (node int, dist float64, ok bool)
	// Diameter reports the largest pairwise distance.
	Diameter() float64
	// MinDistance reports the smallest positive pairwise distance.
	MinDistance() float64
	// AspectRatio reports Diameter / MinDistance (the paper's Delta).
	AspectRatio() float64
}

// Backend selects a BallIndex implementation.
type Backend int

const (
	// Eager precomputes every distance-sorted neighbor row up front:
	// O(n^2 log n) build time (parallelized across Workers), O(n^2)
	// memory, O(log n) queries. The right regime for the paper's
	// centralized polynomial-time constructions.
	Eager Backend = iota
	// Lazy keeps only a truncated k-nearest prefix per node and extends
	// prefixes on demand, answering every query exactly. Memory stays
	// proportional to what the queries actually touch — the regime of
	// Meridian-scale overlays where a full sorted distance matrix stops
	// fitting.
	Lazy
)

// Options tunes New.
type Options struct {
	// Backend selects the implementation (default Eager).
	Backend Backend
	// Workers bounds build/scan parallelism; 0 means GOMAXPROCS.
	Workers int
	// InitialPrefix is the lazy backend's starting per-node prefix
	// length; 0 means a small default. Ignored by the eager backend.
	InitialPrefix int
}

// New builds a BallIndex for space with the selected backend.
func New(space Space, opts Options) BallIndex {
	switch opts.Backend {
	case Lazy:
		return NewLazyIndex(space, opts)
	default:
		return newEager(space, opts.Workers)
	}
}

// WithRows returns idx when it already holds every node's full sorted
// row (the eager Index), and otherwise an eager Index built over idx's
// space in one parallel pass. A caller that reads whole rows of every
// node — the Theorem 2.1 router — sorts each row once this way instead
// of growing it through a lazy backend's doubling prefixes.
func WithRows(idx BallIndex, workers int) BallIndex {
	if eager, ok := idx.(*Index); ok {
		return eager
	}
	return newEager(idx.Space(), workers)
}

// Index is the eager backend: per-node distance-sorted neighbor lists,
// built up front in parallel. It answers the ball queries used by nets,
// packings, measures, rings of neighbors and the small-world samplers in
// O(log n) per query.
//
// Building an Index costs O(n^2 log n) time (divided across a
// GOMAXPROCS-sized worker pool) and O(n^2) memory; all constructions in
// the paper are polynomial-time and centralized ("efficiently computed"
// in the paper's sense), so this is the intended regime.
type Index struct {
	space  Space
	sorted [][]Neighbor // sorted[u] ascending by distance; sorted[u][0] == {u, 0}
	diam   float64
	minPos float64 // smallest positive distance
}

var _ BallIndex = (*Index)(nil)

// NewIndex builds the eager distance index for space using a
// GOMAXPROCS-sized worker pool.
func NewIndex(space Space) *Index { return newEager(space, 0) }

func newEager(space Space, workers int) *Index {
	n := space.N()
	idx := &Index{
		space:  space,
		sorted: make([][]Neighbor, n),
		minPos: math.Inf(1),
	}
	workers = par.Workers(workers, n)
	if workers <= 1 {
		for u := 0; u < n; u++ {
			idx.setRow(u, buildRow(space, u, n))
		}
		return idx
	}
	idx.diam, idx.minPos = parallelScan(n, workers, func(lo, hi int) (diam, minPos float64) {
		minPos = math.Inf(1)
		for u := lo; u < hi; u++ {
			row := buildRow(space, u, n)
			idx.sorted[u] = row
			if last := row[n-1].Dist; last > diam {
				diam = last
			}
			if d, ok := firstPositive(row); ok && d < minPos {
				minPos = d
			}
		}
		return diam, minPos
	})
	return idx
}

// parallelScan distributes [0, n) across the shared par worker pool and
// merges each range's (diameter, min positive distance) fold. Dynamic
// batch claiming matters here: Dist cost can be arbitrarily uneven
// across user-supplied spaces and triangular pair scans skew work toward
// low node ids.
func parallelScan(n, workers int, scan func(lo, hi int) (diam, minPos float64)) (diam, minPos float64) {
	workers = par.Workers(workers, n)
	diams := make([]float64, workers)
	mins := make([]float64, workers)
	for w := range mins {
		mins[w] = math.Inf(1)
	}
	par.ForRange(workers, n, func(w, lo, hi int) {
		d, m := scan(lo, hi)
		if d > diams[w] {
			diams[w] = d
		}
		if m < mins[w] {
			mins[w] = m
		}
	})
	minPos = math.Inf(1)
	for w := 0; w < workers; w++ {
		if diams[w] > diam {
			diam = diams[w]
		}
		if mins[w] < minPos {
			minPos = mins[w]
		}
	}
	return diam, minPos
}

func buildRow(space Space, u, n int) []Neighbor {
	row := make([]Neighbor, n)
	for v := 0; v < n; v++ {
		row[v] = Neighbor{Node: v, Dist: space.Dist(u, v)}
	}
	slices.SortFunc(row, neighborCmp)
	return row
}

func firstPositive(row []Neighbor) (float64, bool) {
	for _, nb := range row {
		if nb.Dist > 0 {
			return nb.Dist, true
		}
	}
	return 0, false
}

func (idx *Index) setRow(u int, row []Neighbor) {
	n := len(row)
	idx.sorted[u] = row
	if last := row[n-1].Dist; last > idx.diam {
		idx.diam = last
	}
	if d, ok := firstPositive(row); ok && d < idx.minPos {
		idx.minPos = d
	}
}

// Space returns the underlying metric space.
func (idx *Index) Space() Space { return idx.space }

// N reports the number of nodes.
func (idx *Index) N() int { return idx.space.N() }

// Dist reports the distance between u and v.
func (idx *Index) Dist(u, v int) float64 { return idx.space.Dist(u, v) }

// Diameter reports the largest pairwise distance.
func (idx *Index) Diameter() float64 { return idx.diam }

// MinDistance reports the smallest positive pairwise distance.
func (idx *Index) MinDistance() float64 { return idx.minPos }

// AspectRatio reports Diameter / MinDistance (the paper's Delta).
func (idx *Index) AspectRatio() float64 {
	if idx.minPos == 0 || math.IsInf(idx.minPos, 1) {
		return 1
	}
	return idx.diam / idx.minPos
}

// Sorted returns all nodes sorted by ascending distance from u, starting
// with u itself at distance 0. The returned slice is shared; callers must
// not modify it.
func (idx *Index) Sorted(u int) []Neighbor { return idx.sorted[u] }

// Neighbors iterates the distance-sorted row of u.
func (idx *Index) Neighbors(u int) iter.Seq[Neighbor] {
	row := idx.sorted[u]
	return func(yield func(Neighbor) bool) {
		for _, nb := range row {
			if !yield(nb) {
				return
			}
		}
	}
}

// BallCount reports |B_u(r)|, the number of nodes in the closed ball of
// radius r around u.
func (idx *Index) BallCount(u int, r float64) int {
	row := idx.sorted[u]
	// First index with Dist > r; that index equals the count of nodes <= r.
	return sort.Search(len(row), func(i int) bool { return row[i].Dist > r })
}

// Ball returns the nodes of the closed ball B_u(r) in ascending distance
// order. The returned slice aliases the index; callers must not modify it.
func (idx *Index) Ball(u int, r float64) []Neighbor {
	return idx.sorted[u][:idx.BallCount(u, r)]
}

// RadiusForCount reports the radius of the smallest closed ball around u
// that contains at least k nodes (including u). k is clamped to [1, n].
func (idx *Index) RadiusForCount(u, k int) float64 {
	row := idx.sorted[u]
	if k < 1 {
		k = 1
	}
	if k > len(row) {
		k = len(row)
	}
	return row[k-1].Dist
}

// RadiusForMass reports r_u(eps): the radius of the smallest closed ball
// around u containing at least ceil(eps*n) nodes (the counting measure of
// the paper's Section 3). eps is clamped to (0, 1].
func (idx *Index) RadiusForMass(u int, eps float64) float64 {
	n := idx.N()
	k := int(math.Ceil(eps * float64(n)))
	return idx.RadiusForCount(u, k)
}

// Eccentricity reports the distance from u to the farthest node.
func (idx *Index) Eccentricity(u int) float64 {
	row := idx.sorted[u]
	return row[len(row)-1].Dist
}

// Nearest returns, among the candidate set (given as a sorted-unique slice
// of node ids), the one closest to u, breaking ties toward the smaller id.
// It reports ok=false when candidates is empty.
func (idx *Index) Nearest(u int, candidates []int) (node int, dist float64, ok bool) {
	if len(candidates) == 0 {
		return 0, 0, false
	}
	best, bestD := -1, math.Inf(1)
	for _, c := range candidates {
		if d := idx.space.Dist(u, c); d < bestD || (d == bestD && c < best) {
			best, bestD = c, d
		}
	}
	return best, bestD, true
}

// Validate checks the metric axioms exhaustively: symmetry, identity of
// indiscernibles, non-negativity and the triangle inequality. It is
// O(n^3) and intended for tests and small inputs.
func Validate(space Space) error {
	n := space.N()
	for u := 0; u < n; u++ {
		if d := space.Dist(u, u); d != 0 {
			return fmt.Errorf("metric: Dist(%d,%d) = %v, want 0", u, u, d)
		}
		for v := u + 1; v < n; v++ {
			duv, dvu := space.Dist(u, v), space.Dist(v, u)
			if duv != dvu {
				return fmt.Errorf("metric: asymmetric Dist(%d,%d)=%v vs Dist(%d,%d)=%v", u, v, duv, v, u, dvu)
			}
			if duv <= 0 || math.IsNaN(duv) || math.IsInf(duv, 0) {
				return fmt.Errorf("metric: Dist(%d,%d) = %v, want finite positive", u, v, duv)
			}
		}
	}
	const slack = 1e-9 // tolerate float rounding in derived metrics
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			duv := space.Dist(u, v)
			for w := 0; w < n; w++ {
				if duv > space.Dist(u, w)+space.Dist(w, v)+slack*(1+duv) {
					return fmt.Errorf("metric: triangle violated for (%d,%d,%d)", u, v, w)
				}
			}
		}
	}
	return nil
}

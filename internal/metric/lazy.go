package metric

import (
	"iter"
	"math"
	"slices"

	"rings/internal/par"
	"sync"
	"sync/atomic"
)

// defaultInitialPrefix is the lazy backend's starting per-node prefix
// length when Options.InitialPrefix is zero: big enough to absorb the
// small-ball queries that dominate ring and net construction, small
// enough that untouched nodes cost almost nothing.
const defaultInitialPrefix = 32

// LazyIndex is the memory-bounded backend: it keeps, per node, only a
// truncated prefix of that node's distance-sorted neighbor row, plus the
// underlying Space. Prefixes are extended on demand — a query that needs
// more of a row than is materialized recomputes the row's k smallest
// neighbors by heap selection (O(n log k) time, O(k) retained memory) and
// publishes the longer prefix. Every query is answered exactly; the
// prefix order matches the eager backend's total order (distance, then
// node id), so the two backends return identical results.
//
// LazyIndex is safe for concurrent use: prefixes are immutable once
// published (readers load them through an atomic pointer) and each node
// has its own extension lock, so concurrent construction workloads only
// contend when they touch the same node's row.
type LazyIndex struct {
	space   Space
	n       int
	initial int
	workers int
	rows    []lazyRow

	statsOnce sync.Once
	diam      float64
	minPos    float64
}

type lazyRow struct {
	mu     sync.Mutex                 // serializes extensions of this row
	prefix atomic.Pointer[[]Neighbor] // sorted k-nearest prefix; nil until first touch
	ecc    float64                    // cached eccentricity, valid when eccSet
	eccSet bool                       // guarded by mu
}

var _ BallIndex = (*LazyIndex)(nil)

// NewLazyIndex builds the memory-bounded lazy index for space. Only
// opts.InitialPrefix and opts.Workers are consulted.
func NewLazyIndex(space Space, opts Options) *LazyIndex {
	n := space.N()
	initial := opts.InitialPrefix
	if initial <= 0 {
		initial = defaultInitialPrefix
	}
	if initial > n {
		initial = n
	}
	return &LazyIndex{
		space:   space,
		n:       n,
		initial: initial,
		workers: par.Workers(opts.Workers, n),
		rows:    make([]lazyRow, n),
	}
}

// Space returns the underlying metric space.
func (ix *LazyIndex) Space() Space { return ix.space }

// N reports the number of nodes.
func (ix *LazyIndex) N() int { return ix.n }

// Dist reports the distance between u and v.
func (ix *LazyIndex) Dist(u, v int) float64 { return ix.space.Dist(u, v) }

// prefixAtLeast returns u's sorted prefix, extended (geometrically, to
// amortize recomputation) so that it holds at least need entries.
func (ix *LazyIndex) prefixAtLeast(u, need int) []Neighbor {
	if need > ix.n {
		need = ix.n
	}
	if need < 1 {
		need = 1
	}
	row := &ix.rows[u]
	if p := row.prefix.Load(); p != nil && len(*p) >= need {
		return *p
	}
	row.mu.Lock()
	defer row.mu.Unlock()
	cur := row.prefix.Load()
	if cur != nil && len(*cur) >= need {
		return *cur
	}
	k := ix.initial
	if cur != nil && 2*len(*cur) > k {
		k = 2 * len(*cur)
	}
	if k < need {
		k = need
	}
	if k > ix.n {
		k = ix.n
	}
	p := ix.kNearest(u, k)
	row.prefix.Store(&p)
	return p
}

// kNearest computes the k smallest neighbors of u under the backend
// order, sorted ascending. For k == n it builds and fully sorts the row;
// otherwise it runs a max-heap selection so transient memory stays O(k)
// beyond the unavoidable O(n) distance evaluations.
func (ix *LazyIndex) kNearest(u, k int) []Neighbor {
	n := ix.n
	if k >= n {
		return buildRow(ix.space, u, n, new(rowSorter))
	}
	// Max-heap of the k smallest seen so far: the root is the largest
	// retained neighbor, evicted whenever a smaller candidate arrives.
	h := make([]Neighbor, 0, k)
	for v := 0; v < n; v++ {
		cand := Neighbor{Node: v, Dist: ix.space.Dist(u, v)}
		if len(h) < k {
			h = append(h, cand)
			siftUp(h, len(h)-1)
			continue
		}
		if neighborCmp(cand, h[0]) < 0 {
			h[0] = cand
			siftDown(h, 0)
		}
	}
	slices.SortFunc(h, neighborCmp)
	return h
}

func siftUp(h []Neighbor, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if neighborCmp(h[parent], h[i]) >= 0 {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []Neighbor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && neighborCmp(h[largest], h[l]) < 0 {
			largest = l
		}
		if r < len(h) && neighborCmp(h[largest], h[r]) < 0 {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// ballPrefix returns a prefix of u's row guaranteed to contain all of
// B_u(r): it extends until the last materialized neighbor lies strictly
// beyond r (ties at exactly r could hide equal-distance nodes past a
// shorter prefix) or the row is complete.
func (ix *LazyIndex) ballPrefix(u int, r float64) []Neighbor {
	cur := ix.prefixAtLeast(u, 1) // current prefix (initial floor on first touch)
	for len(cur) < ix.n && cur[len(cur)-1].Dist <= r {
		cur = ix.prefixAtLeast(u, 2*len(cur))
	}
	return cur
}

// Sorted returns the full distance-sorted row of u, materializing it.
func (ix *LazyIndex) Sorted(u int) []Neighbor { return ix.prefixAtLeast(u, ix.n) }

// Neighbors iterates u's row in ascending distance order, extending the
// materialized prefix geometrically only as far as the caller consumes.
func (ix *LazyIndex) Neighbors(u int) iter.Seq[Neighbor] {
	return func(yield func(Neighbor) bool) {
		p := ix.prefixAtLeast(u, ix.initial)
		i := 0
		for {
			for ; i < len(p); i++ {
				if !yield(p[i]) {
					return
				}
			}
			if len(p) >= ix.n {
				return
			}
			p = ix.prefixAtLeast(u, 2*len(p))
		}
	}
}

// BallCount reports |B_u(r)|.
func (ix *LazyIndex) BallCount(u int, r float64) int {
	return ballEnd(ix.ballPrefix(u, r), r)
}

// Ball returns the closed ball B_u(r) in ascending distance order.
func (ix *LazyIndex) Ball(u int, r float64) []Neighbor {
	p := ix.ballPrefix(u, r)
	return p[:ballEnd(p, r)]
}

// RadiusForCount reports the radius of the smallest closed ball around u
// containing at least k nodes. k is clamped to [1, n].
func (ix *LazyIndex) RadiusForCount(u, k int) float64 {
	if k < 1 {
		k = 1
	}
	if k > ix.n {
		k = ix.n
	}
	return ix.prefixAtLeast(u, k)[k-1].Dist
}

// RadiusForMass reports r_u(eps) under the counting measure.
func (ix *LazyIndex) RadiusForMass(u int, eps float64) float64 {
	k := int(math.Ceil(eps * float64(ix.n)))
	return ix.RadiusForCount(u, k)
}

// Eccentricity reports the distance from u to the farthest node. It is
// computed by a single O(n) scan (no row materialization) and cached.
func (ix *LazyIndex) Eccentricity(u int) float64 {
	row := &ix.rows[u]
	row.mu.Lock()
	if row.eccSet {
		e := row.ecc
		row.mu.Unlock()
		return e
	}
	row.mu.Unlock()
	var e float64
	if p := row.prefix.Load(); p != nil && len(*p) == ix.n {
		e = (*p)[ix.n-1].Dist // full row already materialized
	} else {
		for v := 0; v < ix.n; v++ {
			if d := ix.space.Dist(u, v); d > e {
				e = d
			}
		}
	}
	row.mu.Lock()
	row.ecc, row.eccSet = e, true
	row.mu.Unlock()
	return e
}

// Nearest returns the candidate closest to u, ties toward the smaller id.
func (ix *LazyIndex) Nearest(u int, candidates []int) (node int, dist float64, ok bool) {
	if len(candidates) == 0 {
		return 0, 0, false
	}
	best, bestD := -1, math.Inf(1)
	for _, c := range candidates {
		if d := ix.space.Dist(u, c); d < bestD || (d == bestD && c < best) {
			best, bestD = c, d
		}
	}
	return best, bestD, true
}

// stats computes the diameter and minimum positive distance once, by a
// parallel all-pairs scan: O(n^2) time across the worker pool but O(1)
// retained memory, so the backend stays memory-bounded even after global
// queries.
func (ix *LazyIndex) stats() {
	ix.statsOnce.Do(func() {
		n := ix.n
		if ix.workers <= 1 || n < 2 {
			ix.diam, ix.minPos = scanPairs(ix.space, 0, n, n)
			return
		}
		ix.diam, ix.minPos = parallelScan(n, ix.workers, func(_, lo, hi int) (float64, float64) {
			return scanPairs(ix.space, lo, hi, n)
		})
	})
}

func scanPairs(space Space, lo, hi, n int) (diam, minPos float64) {
	minPos = math.Inf(1)
	for u := lo; u < hi; u++ {
		for v := u + 1; v < n; v++ {
			d := space.Dist(u, v)
			if d > diam {
				diam = d
			}
			if d > 0 && d < minPos {
				minPos = d
			}
		}
	}
	return diam, minPos
}

// Diameter reports the largest pairwise distance.
func (ix *LazyIndex) Diameter() float64 {
	ix.stats()
	return ix.diam
}

// MinDistance reports the smallest positive pairwise distance.
func (ix *LazyIndex) MinDistance() float64 {
	ix.stats()
	return ix.minPos
}

// AspectRatio reports Diameter / MinDistance (the paper's Delta).
func (ix *LazyIndex) AspectRatio() float64 {
	ix.stats()
	if ix.minPos == 0 || math.IsInf(ix.minPos, 1) {
		return 1
	}
	return ix.diam / ix.minPos
}

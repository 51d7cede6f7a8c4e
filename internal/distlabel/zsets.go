package distlabel

import (
	"math"
	"slices"
	"sort"

	"rings/internal/intset"
	"rings/internal/metric"
	"rings/internal/par"
	"rings/internal/triangulation"
)

// ZParams is the Z-neighbor scale ladder of one construction: the scales
// t_k (ascending, finest first) and, per scale, the ascending net index
// jz(k) whose members qualify at that scale. A node w belongs to Z_u iff
// w is a member of G_(jz(k0)) for k0 the smallest k with t_k >= d(u,w).
//
// The ladder is exposed (rather than kept inline in the build) because
// the churn engine's localized repair needs to re-evaluate exactly this
// qualification predicate for single nodes: after a mutation it diffs
// the per-scale net memberships and patches only the Z-sets whose
// qualifications could have flipped, instead of re-deriving every Z_u.
type ZParams struct {
	// Tks are the Z scales, ascending; the last is >= the diameter.
	Tks []float64
	// Levels[k] is the ascending net index jz(k) used at scale Tks[k].
	Levels []int
}

// ZSetParams derives the Z scale ladder of a construction.
func ZSetParams(cons *triangulation.Construction) ZParams {
	finest := cons.Nets.Scale(0)
	diam := cons.Idx.Diameter()
	var zp ZParams
	for k := 0; ; k++ {
		tk := finest * math.Pow(2, float64(k))
		zp.Tks = append(zp.Tks, tk)
		zp.Levels = append(zp.Levels, cons.Nets.JForScale(tk*cons.DeltaPrime/zScaleDiv))
		if tk >= diam {
			break
		}
	}
	return zp
}

// Equal reports whether two ladders are identical (same scales, same
// level mapping) — the precondition for incremental Z-set maintenance
// across a mutation.
func (zp ZParams) Equal(other ZParams) bool {
	if len(zp.Tks) != len(other.Tks) {
		return false
	}
	for k := range zp.Tks {
		if zp.Tks[k] != other.Tks[k] || zp.Levels[k] != other.Levels[k] {
			return false
		}
	}
	return true
}

// Masks returns, per scale, the membership mask of the qualifying net
// level (shared slices of the construction's hierarchy; do not modify).
func (zp ZParams) Masks(cons *triangulation.Construction) [][]bool {
	masks := make([][]bool, len(zp.Levels))
	for k, j := range zp.Levels {
		masks[k] = cons.Nets.Mask(j)
	}
	return masks
}

// ScaleIndex reports k0(d): the smallest k with Tks[k] >= d, or
// len(Tks) when d exceeds every scale (cannot happen for d <= diameter).
func (zp ZParams) ScaleIndex(d float64) int {
	return sort.SearchFloat64s(zp.Tks, d)
}

// Qualifies reports whether w (at distance d from the probe node)
// belongs to the probe's Z-set, given the per-scale masks.
func (zp ZParams) Qualifies(masks [][]bool, w int, d float64) bool {
	k0 := zp.ScaleIndex(d)
	return k0 < len(zp.Tks) && masks[k0][w]
}

// Reach reports, per node w, the largest scale at which w qualifies
// (-1 where it qualifies at none), so that Qualifies(masks, w, d) is
// d <= reach[w]. The masks are nested — Levels ascend, and a coarser net
// is a subset of each finer one — so w qualifies at every scale up to
// the last whose net holds it, and k0(d) reaches past that scale exactly
// when d exceeds it.
func (zp ZParams) Reach(masks [][]bool) []float64 {
	reach := make([]float64, len(masks[0]))
	for w := range reach {
		reach[w] = -1
		for k := range masks {
			if !masks[k][w] {
				break
			}
			reach[w] = zp.Tks[k]
		}
	}
	return reach
}

// BuildZSets computes every Z-neighbor set: Z_u is the union over
// scales t_k of B_u(t_k) ∩ G_jz(k), and testing the first qualifying
// scale alone decides membership (see the package doc), so w's
// membership is a test on the one distance d(u, w) — against w's reach
// (see Reach). Each Z_u is read off in id order, w = 0…n−1, and comes out
// sorted: no sorted row, no mark set and no sort, so after the
// construction no Z-set asks the index for more than a distance.
func BuildZSets(cons *triangulation.Construction, workers int) [][]int {
	n := cons.Idx.N()
	zp := ZSetParams(cons)
	reach := zp.Reach(zp.Masks(cons))
	zAll := make([][]int, n)
	bufs := make([][]int, par.Workers(workers, n))
	par.ForWorker(workers, n, func(w, u int) {
		bufs[w] = appendZSet(bufs[w][:0], cons.Idx, reach, u)
		zAll[u] = slices.Clone(bufs[w])
	})
	return zAll
}

// BuildZSet computes a single node's Z-set (the churn repair path for a
// freshly joined node), sorted by id.
func BuildZSet(cons *triangulation.Construction, zp ZParams, masks [][]bool, u int) []int {
	return appendZSet(nil, cons.Idx, zp.Reach(masks), u)
}

// appendZSet appends Z_u to dst in ascending id order.
func appendZSet(dst []int, idx metric.BallIndex, reach []float64, u int) []int {
	for w, r := range reach {
		if idx.Dist(u, w) <= r {
			dst = append(dst, w)
		}
	}
	return dst
}

// BuildXAll computes every node's X union ∪_i X_ui, sorted by id.
func BuildXAll(cons *triangulation.Construction, workers int) [][]int {
	n := cons.Idx.N()
	xAll := make([][]int, n)
	nw := par.Workers(workers, n)
	sets := make([]intset.Set, nw)
	par.ForWorker(workers, n, func(w, u int) {
		st := &sets[w]
		st.Reset(n)
		for i := 0; i <= cons.IMax; i++ {
			st.AddAll(cons.X[u][i])
		}
		xAll[u] = st.Sorted()
	})
	return xAll
}

// BuildTSet computes one node's virtual neighbor set
// T_u = X_u ∪ Z_u ∪ (∪_{v∈X_u} Z_v), sorted by id, through the caller's
// scratch set; identity is IdentitySet(n). Once the union holds all n ids
// no further Z_v can add one, so the remaining unions are skipped and
// the shared identity slice is returned instead of a copy of it.
func BuildTSet(xAll, zAll [][]int, u int, st *intset.Set, identity []int) []int {
	n := len(identity)
	st.Reset(n)
	st.AddAll(xAll[u])
	st.AddAll(zAll[u])
	for _, v := range xAll[u] {
		if st.Len() == n {
			break
		}
		st.AddAll(zAll[v])
	}
	if st.Len() == n {
		return identity
	}
	return st.Sorted()
}

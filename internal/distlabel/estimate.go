package distlabel

import (
	"math"
	"sort"
)

// ulpGuard mirrors triangulation.Estimate's discount on the lower bound;
// see that package's documentation.
const ulpGuard = 1e-13

// Estimate computes distance bounds for the pair of nodes behind the two
// labels, reading nothing but the labels themselves (the defining property
// of a distance labeling scheme). It returns the triangle-inequality
// sandwich (lower <= d <= upper); ok is false when no common neighbor
// could be identified (does not happen for labels built by this package).
//
// The upper bound is the (1+δ)-approximate estimate of Theorem 3.4; the
// lower bound comes for free from the same common neighbors.
func Estimate(lu, lv *Label) (lower, upper float64, ok bool) {
	upper = math.Inf(1)
	consider := func(hu, hv int) {
		if hu < 0 || hv < 0 || hu >= len(lu.Dists) || hv >= len(lv.Dists) {
			return
		}
		ok = true
		da, db := lu.Dists[hu], lv.Dists[hv]
		if s := da + db; s < upper {
			upper = s
		}
		if g := math.Abs(da-db) - ulpGuard*math.Max(da, db); g > lower {
			lower = g
		}
	}

	// Shared level-0 prefix: identical node, identical index, in every
	// label of the scheme.
	for h := 0; h < lu.Level0Count && h < len(lu.Dists) && h < len(lv.Dists); h++ {
		consider(h, h)
	}

	// Walk each zooming sequence, translating through both labels.
	walk := func(mine, other *Label) {
		// Invariant: (a, b) are the host indices of the current zoom
		// element f in mine resp. other.
		a, b := mine.Zoom0, mine.Zoom0 // shared prefix: same index both sides
		consider2 := func(x, y int) {
			if mine == lu {
				consider(x, y)
			} else {
				consider(y, x)
			}
		}
		consider2(a, b)
		for i := 0; i < len(mine.ZoomPsi); i++ {
			// Labels of unequal depth (a truncated or cross-scheme wire
			// label) stop at the shallower one, as the flat walk does.
			if i >= len(mine.Trans) || i >= len(other.Trans) {
				return
			}
			// Harvest all virtual neighbors of f that both sides can
			// translate at this level (the paper's final-stage scan, done
			// at every level since the critical one is unknown).
			harvest(mine.Trans[i], other.Trans[i], a, b, consider2)
			y := mine.ZoomPsi[i]
			na := lookup(mine.Trans[i], int32(a), y)
			nb := lookup(other.Trans[i], int32(b), y)
			if na < 0 || nb < 0 {
				return
			}
			a, b = na, nb
			consider2(a, b)
		}
	}
	walk(lu, lv)
	walk(lv, lu)
	return lower, upper, ok
}

// Translate applies the label's ζ map at the given level to (host index
// x, virtual index y), returning the translated host index or -1. It is
// the primitive Theorem B.1's landmark identification builds on.
func (l *Label) Translate(level, x int, y int32) int {
	if level < 0 || level >= len(l.Trans) {
		return -1
	}
	return lookup(l.Trans[level], int32(x), y)
}

// HostDist reports the stored distance to the h-th host neighbor (or
// +Inf when out of range).
func (l *Label) HostDist(h int) float64 {
	if h < 0 || h >= len(l.Dists) {
		return math.Inf(1)
	}
	return l.Dists[h]
}

// lookup finds the Z of the entry with the given Y under key x.
func lookup(lm LevelMap, x int32, y int32) int {
	entries := lm.Get(x)
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Y >= y })
	if i < len(entries) && entries[i].Y == y {
		return int(entries[i].Z)
	}
	return -1
}

// harvest intersects the (Y-sorted) entry lists of the two labels for the
// same physical node f (host index a in the first map, b in the second)
// and reports each commonly-translatable virtual neighbor.
func harvest(ma, mb LevelMap, a, b int, consider func(x, y int)) {
	ea, eb := ma.Get(int32(a)), mb.Get(int32(b))
	i, j := 0, 0
	for i < len(ea) && j < len(eb) {
		switch {
		case ea[i].Y < eb[j].Y:
			i++
		case ea[i].Y > eb[j].Y:
			j++
		default:
			consider(int(ea[i].Z), int(eb[j].Z))
			i++
			j++
		}
	}
}

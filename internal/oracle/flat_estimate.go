package oracle

import "math"

// ulpGuardFlat mirrors distlabel's and triangulation's lower-bound
// discount; the flat path must fold exactly the same arithmetic.
const ulpGuardFlat = 1e-13

// flatAcc accumulates one estimate: the running sandwich fold. It lives
// on the caller's stack; the whole flat estimate path performs zero heap
// allocations.
type flatAcc struct {
	lower, upper float64
	ok           bool
}

// consider folds one common-neighbor candidate: hu indexes u's stored
// distances, hv indexes v's. Bit-identical to distlabel.Estimate's
// consider closure.
//
//ringvet:hotpath
func (a *flatAcc) consider(f *FlatSnap, uOff, vOff int32, lenU, lenV, hu, hv int) {
	if hu < 0 || hv < 0 || hu >= lenU || hv >= lenV {
		return
	}
	a.ok = true
	da, db := f.dists[int(uOff)+hu], f.dists[int(vOff)+hv]
	if s := da + db; s < a.upper {
		a.upper = s
	}
	if g := math.Abs(da-db) - ulpGuardFlat*math.Max(da, db); g > a.lower {
		a.lower = g
	}
}

// estimatePair answers one pair from the flat arenas. Node ids must be
// in range (the callers bounds-check). The answer is bit-identical to
// distlabel.Estimate on the labels the arenas were packed from (or to
// Tri.Estimate under SchemeBeacons).
//
//ringvet:hotpath
func (f *FlatSnap) estimatePair(u, v int) (lower, upper float64, ok bool) {
	if f.scheme == SchemeBeacons {
		return f.estimateBeacons(u, v)
	}
	a := flatAcc{upper: math.Inf(1)}

	uOff, vOff := f.distOff[u], f.distOff[v]
	lenU, lenV := int(f.distOff[u+1]-uOff), int(f.distOff[v+1]-vOff)

	// Shared level-0 prefix: identical node, identical index, in every
	// label of the scheme.
	for h := 0; h < int(f.l0[u]) && h < lenU && h < lenV; h++ {
		a.consider(f, uOff, vOff, lenU, lenV, h, h)
	}

	f.walk(&a, u, v, false, uOff, vOff, lenU, lenV)
	f.walk(&a, v, u, true, uOff, vOff, lenU, lenV)
	return a.lower, a.upper, a.ok
}

// walk mirrors distlabel.Estimate's zooming walk over the flat layout:
// follow mine's zooming sequence, tracking the current element's host
// index on both sides, harvesting every commonly-translatable virtual
// neighbor at each level. swap flips the (mine, other) orientation back
// to (u, v) for the distance fold.
//
//ringvet:hotpath
func (f *FlatSnap) walk(a *flatAcc, mine, other int, swap bool, uOff, vOff int32, lenU, lenV int) {
	// Invariant: (am, bo) are the host indices of the current zoom
	// element in mine resp. other.
	am := int(f.zoom0[mine])
	bo := am // shared prefix: same index both sides
	f.consider2(a, swap, uOff, vOff, lenU, lenV, am, bo)
	psiStart := int(f.psiOff[mine])
	lenPsi := int(f.psiOff[mine+1]) - psiStart
	gMine := int(f.levOff[mine])
	gOther := int(f.levOff[other])
	lenTransOther := int(f.levOff[other+1]) - gOther
	for i := 0; i < lenPsi; i++ {
		if i >= lenTransOther {
			return
		}
		f.harvest(a, swap, uOff, vOff, lenU, lenV, gMine+i, gOther+i, int32(am), int32(bo))
		y := f.psi[psiStart+i]
		na := f.lookup(gMine+i, int32(am), y)
		nb := f.lookup(gOther+i, int32(bo), y)
		if na < 0 || nb < 0 {
			return
		}
		am, bo = na, nb
		f.consider2(a, swap, uOff, vOff, lenU, lenV, am, bo)
	}
}

// consider2 folds a (mine-host, other-host) pair, restoring (u, v)
// orientation.
//
//ringvet:hotpath
func (f *FlatSnap) consider2(a *flatAcc, swap bool, uOff, vOff int32, lenU, lenV, x, y int) {
	if swap {
		x, y = y, x
	}
	a.consider(f, uOff, vOff, lenU, lenV, x, y)
}

// lookup finds the Z of the entry with virtual index y under key x in
// group g (binary search over the sorted x keys, then over the Y-sorted
// pairs of the key's span), or -1.
//
//ringvet:hotpath
func (f *FlatSnap) lookup(g int, x, y int32) int {
	k := f.findKey(g, x)
	if k < 0 {
		return -1
	}
	lo, end := int(f.entSpan[2*k]), int(f.entSpan[2*k+1])
	hi := end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.ents[2*mid] < y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && f.ents[2*lo] == y {
		return int(f.ents[2*lo+1])
	}
	return -1
}

// findKey locates key x in group g's sorted key range, returning the
// global key slot or -1.
//
//ringvet:hotpath
func (f *FlatSnap) findKey(g int, x int32) int {
	lo, hi := int(f.xkOff[g]), int(f.xkOff[g+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.xkeys[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(f.xkOff[g+1]) && f.xkeys[lo] == x {
		return lo
	}
	return -1
}

// harvest intersects the Y-sorted entry spans of the same physical node
// (key xa in group ga, key xb in group gb) and folds each commonly
// translatable virtual neighbor — the same ascending-Y two-pointer merge
// as distlabel's harvest, so the fold order matches exactly.
//
//ringvet:hotpath
func (f *FlatSnap) harvest(a *flatAcc, swap bool, uOff, vOff int32, lenU, lenV, ga, gb int, xa, xb int32) {
	ka := f.findKey(ga, xa)
	kb := f.findKey(gb, xb)
	var ia, ea, ib, eb int
	if ka >= 0 {
		ia, ea = int(f.entSpan[2*ka]), int(f.entSpan[2*ka+1])
	}
	if kb >= 0 {
		ib, eb = int(f.entSpan[2*kb]), int(f.entSpan[2*kb+1])
	}
	for ia < ea && ib < eb {
		ya, yb := f.ents[2*ia], f.ents[2*ib]
		switch {
		case ya < yb:
			ia++
		case ya > yb:
			ib++
		default:
			f.consider2(a, swap, uOff, vOff, lenU, lenV, int(f.ents[2*ia+1]), int(f.ents[2*ib+1]))
			ia++
			ib++
		}
	}
}

// estimateBeacons intersects the two nodes' sorted beacon rows: the same
// min/max fold as triangulation.Estimate over the same common-beacon
// set (map iteration order cannot change an extremum, so the answers
// are bit-identical).
//
//ringvet:hotpath
func (f *FlatSnap) estimateBeacons(u, v int) (lower, upper float64, ok bool) {
	upper = math.Inf(1)
	i, e := int(f.bOff[u]), int(f.bOff[u+1])
	j, t := int(f.bOff[v]), int(f.bOff[v+1])
	for i < e && j < t {
		switch {
		case f.bIDs[i] < f.bIDs[j]:
			i++
		case f.bIDs[i] > f.bIDs[j]:
			j++
		default:
			ok = true
			da, db := f.bDist[i], f.bDist[j]
			if s := da + db; s < upper {
				upper = s
			}
			if g := math.Abs(da-db) - ulpGuardFlat*math.Max(da, db); g > lower {
				lower = g
			}
			i++
			j++
		}
	}
	return lower, upper, ok
}

package oracle

import "math"

// ulpGuardFlat mirrors distlabel's lower-bound discount; the flat path
// must fold exactly the same arithmetic.
const ulpGuardFlat = 1e-13

// spanLevels is how many levels of direction u→v's harvests direction
// v→u can recognise as repeats. Deeper levels (no dataset in the tree has
// more than a dozen) are simply harvested again.
const spanLevels = 64

// spanPair is the pair of entry lists one harvest intersects, in (u, v)
// orientation: u's span [us, ue) and v's span [vs, ve) of yz.
type spanPair struct{ us, ue, vs, ve int32 }

// flatAcc accumulates one estimate: the running sandwich fold over u's
// and v's stored host distances. It lives on the caller's stack; the
// whole flat estimate path performs zero heap allocations.
type flatAcc struct {
	du, dv       []float64
	lower, upper float64
	ok           bool
}

// fold takes one common neighbor's two distances into the sandwich — the
// arithmetic of distlabel.Estimate's consider. The larger distance is
// the builtin max, which compiles to branch-free instructions on amd64
// where math.Max is a call. The two can differ only when an operand is
// NaN, and then |da-db| is NaN, so g is NaN whatever m is and never
// stored; or when they are zeros of opposite sign, and then the product
// ulpGuardFlat*m is ±0, so g is 0 - (±0) = +0 either way.
//
//ringvet:hotpath
func (a *flatAcc) fold(da, db float64) {
	a.ok = true
	if s := da + db; s < a.upper {
		a.upper = s
	}
	if g := math.Abs(da-db) - ulpGuardFlat*max(da, db); g > a.lower {
		a.lower = g
	}
}

// consider folds one common-neighbor candidate: hu indexes u's stored
// distances, hv indexes v's; an index outside its label is no candidate.
//
//ringvet:hotpath
func (a *flatAcc) consider(hu, hv int32) {
	if uint(hu) >= uint(len(a.du)) || uint(hv) >= uint(len(a.dv)) {
		return
	}
	a.fold(a.du[hu], a.dv[hv])
}

// estimatePair answers one pair from the flat arenas. Node ids must be
// in range (the callers bounds-check). The answer is bit-identical to
// distlabel.Estimate on the labels the arenas were packed from.
//
// distlabel.Estimate walks u's zooming sequence and then v's, and at
// every level of each walk intersects ("harvests") the entry lists the
// current zoom element has in the two labels. This walk makes the same
// folds in the same order except that direction v→u leaves out a harvest
// of exactly the two lists direction u→v harvested at that level — at lab
// scale a whole group shares one list, so that is most of them. A left-out
// harvest would fold (da, db) pairs that were all folded before, and a
// repeated fold changes nothing: upper is already ≤ its sum and lower
// already ≥ its gap, whatever the values (NaN compares false both times).
//
//ringvet:hotpath
func (f *FlatSnap) estimatePair(u, v int) (lower, upper float64, ok bool) {
	a := flatAcc{
		du:    f.dists[f.distOff[u]:f.distOff[u+1]],
		dv:    f.dists[f.distOff[v]:f.distOff[v+1]],
		upper: math.Inf(1),
	}

	// Shared level-0 prefix: identical node, identical index, in every
	// label of the scheme.
	for h := int32(0); h < f.l0[u] && int(h) < len(a.du) && int(h) < len(a.dv); h++ {
		a.fold(a.du[h], a.dv[h])
	}

	// harvested[i] is what direction u→v harvested at level i. A level it
	// never reached holds the zero pair, which only two empty spans equal
	// — and harvesting those folds nothing.
	var harvested [spanLevels]spanPair
	f.walk(&a, &harvested, u, v, false)
	f.walk(&a, &harvested, u, v, true)
	return a.lower, a.upper, a.ok
}

// walk follows one zooming sequence — u's, or v's when fromV — through
// the labels of mine (whose sequence it is) and other. Mine's side is a
// read: its chain holds, per level, the span of the key the walk stands
// on and the host it zooms to next. Other's side keeps h, the current
// zoom element's host index in other's label, tests h's bit in the
// level's key bitmap, and finds the next zoom element in the span that
// names. Each level harvests every commonly translatable virtual
// neighbor from the two spans. Both directions fold in (u, v)
// orientation.
//
//ringvet:hotpath
func (f *FlatSnap) walk(a *flatAcc, harvested *[spanLevels]spanPair, u, v int, fromV bool) {
	mine, other := u, v
	if fromV {
		mine, other = v, u
	}
	h := f.zoom0[mine] // shared prefix: same index both sides
	a.consider(h, h)
	pLo, pHi := f.psiOff[mine], f.psiOff[mine+1]
	psi := f.psi[pLo:pHi]
	chain := f.chain[3*pLo : 3*pHi]
	gO := int(f.psiOff[other])
	// Labels of unequal depth stop at the shallower one, as the pointer
	// walk does.
	levels := min(len(psi), int(f.psiOff[other+1])-gO)
	words := keyWords(int(f.distOff[other+1] - f.distOff[other]))
	kb := f.keyBits[f.kbOff[other]:f.kbOff[other+1]]
	for i := 0; i < levels; i++ {
		ms, me, next := chain[3*i], chain[3*i+1], chain[3*i+2]
		os, oe := f.span(gO+i, kb[i*words:(i+1)*words], h)
		p := spanPair{ms, me, os, oe}
		if fromV {
			p = spanPair{os, oe, ms, me}
		}
		if !fromV && i < spanLevels {
			harvested[i] = p
		}
		if !fromV || i >= spanLevels || harvested[i] != p {
			f.harvest(a, p)
		}
		h = f.zoomHost(os, oe, psi[i])
		if next < 0 || h < 0 {
			return
		}
		if fromV {
			a.consider(h, next)
		} else {
			a.consider(next, h)
		}
	}
}

// span resolves key x of group g, whose key bitmap is bits, to the span
// [start, end) of its Y-sorted entries in yz: the group's default span
// unless x is one of its exception keys (a binary search over a range
// that is empty on every dataset in the tree). A key the group does not
// have gets the empty span.
//
//ringvet:hotpath
func (f *FlatSnap) span(g int, bits []int32, x int32) (start, end int32) {
	if w := uint(x) >> 5; w >= uint(len(bits)) || uint32(bits[w])>>(uint(x)&31)&1 == 0 {
		return 0, 0
	}
	if lo, hi := int(f.xcOff[g]), int(f.xcOff[g+1]); lo < hi {
		keys := f.xcKeys[lo:hi]
		i, j := 0, len(keys)
		for i < j {
			mid := int(uint(i+j) >> 1)
			if keys[mid] < x {
				i = mid + 1
			} else {
				j = mid
			}
		}
		if i < len(keys) && keys[i] == x {
			k := lo + i
			return f.xcSpan[2*k], f.xcSpan[2*k+1]
		}
	}
	return f.grpSpan[2*g], f.grpSpan[2*g+1]
}

// zoomHost finds the Z of the entry with virtual index y in the span
// [start, end), or -1: a binary search for the first word at or past
// y<<16, which is y's entry if any entry has Y = y. A y outside
// [0, ArenaWidth) wraps the search key, but no word's Y equals it.
//
//ringvet:hotpath
func (f *FlatSnap) zoomHost(start, end, y int32) int32 {
	yz := f.yz[start:end]
	key := uint32(y) << 16
	lo, hi := 0, len(yz)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if yz[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(yz) && yz[lo]>>16 == uint32(y) {
		return int32(yz[lo] & 0xFFFF)
	}
	return -1
}

// harvest intersects u's and v's Y-sorted entry spans of the same
// physical node and folds each commonly translatable virtual neighbor, in
// ascending Y like distlabel's harvest. A match is a branch (the lists of
// one level mostly agree, so it predicts); a mismatch advances the side
// with the smaller Y by arithmetic on the sign of the difference, because
// which side that is the predictor cannot learn — written as `if` the two
// increments compile to branches, and the uniform-pair walk is 7 % slower.
//
//ringvet:hotpath
func (f *FlatSnap) harvest(a *flatAcc, p spanPair) {
	eu, ev := f.yz[p.us:p.ue], f.yz[p.vs:p.ve]
	iu, iv := 0, 0
	for iu < len(eu) && iv < len(ev) {
		wu, wv := eu[iu], ev[iv]
		yu, yv := wu>>16, wv>>16
		if yu == yv {
			// consider, spelled out: the call does not inline.
			if hu, hv := wu&0xFFFF, wv&0xFFFF; int(hu) < len(a.du) && int(hv) < len(a.dv) {
				a.fold(a.du[hu], a.dv[hv])
			}
			iu++
			iv++
			continue
		}
		less := int((int64(yu) - int64(yv)) >> 63) // -1 when yu < yv, else 0
		iu -= less
		iv += 1 + less
	}
}

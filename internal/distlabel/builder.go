package distlabel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rings/internal/core"
	"rings/internal/intset"
	"rings/internal/triangulation"
)

// VirtualSets holds the virtual enumerations ψ_v of every node of an
// n-node space: T_v ascending by id, ψ_v(w) the position of w in it. The
// scheme build and the churn engine's repair hand the label filler the
// same representation, so both produce bit-identical labels from one
// fill implementation. A row is an explicit sorted list, the one shared
// identity slice (what BuildTSet returns for a T-set holding all n ids),
// or nil, which stands for that identity too (the churn engine's rows
// for nodes whose Z-set saturates the space).
type VirtualSets struct {
	identity []int
	rows     [][]int
}

// IdentitySet returns the ids 0..n-1: the row every saturated T-set of an
// n-node space shares.
func IdentitySet(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// NewVirtualSets wraps one T-set row per node; identity is
// IdentitySet(n). It keeps both slices (no copy).
func NewVirtualSets(identity []int, rows [][]int) VirtualSets {
	return VirtualSets{identity: identity, rows: rows}
}

// Enum returns ψ_v (no copy, no index).
func (vs VirtualSets) Enum(v int) core.Enum {
	if vs.rows[v] == nil {
		return core.NewEnumFromSorted(vs.identity)
	}
	return core.NewEnumFromSorted(vs.rows[v])
}

// Identity reports whether ψ_v is the identity enumeration of the whole
// node set (T_v = {0..n-1}, ψ_v(w) = w): a set of ids below n held
// ascending is that once it holds n of them. Every identity key of one
// level translates through the same list, which the filler emits once
// and the keys share; the entries themselves are what the per-entry
// searches would produce.
func (vs VirtualSets) Identity(v int) bool {
	return vs.rows[v] == nil || len(vs.rows[v]) == len(vs.identity)
}

// Level0Count reports the size of the shared level-0 host prefix
// |X_00 ∪ Y_00| (identical across nodes by the level-0 uniformization).
func Level0Count(cons *triangulation.Construction) int {
	return len(intset.MergeSorted(nil, cons.X[0][0], cons.Y[0][0]))
}

// BuildHostEnum computes ϕ_u: the shared level-0 prefix first, then the
// remaining X/Y neighbors in ascending id order. set and lvl0buf are
// caller scratch (lvl0buf is returned grown for reuse).
func BuildHostEnum(cons *triangulation.Construction, u int, set *intset.Set, lvl0buf []int) (core.Enum, []int) {
	lvl0 := intset.MergeSorted(lvl0buf[:0], cons.X[u][0], cons.Y[u][0])
	set.Reset(cons.Idx.N())
	for i := 1; i <= cons.IMax; i++ {
		set.AddAll(cons.X[u][i])
		set.AddAll(cons.Y[u][i])
	}
	return core.NewEnumOrderedSorted(lvl0, set.SortedMembers()), lvl0
}

// LabelScratch is the per-worker scratch of FillLabel; one instance must
// not be shared across concurrent fills.
type LabelScratch struct {
	level, next []int
	// hostZ[w] is w's host index when w is in the host enumeration of the
	// node being labeled, else -1; nextZ[w] is the same index when w is
	// also a next-level neighbor. The mark arrays give every ring member
	// its host index without a search, and turn the ζ-map inner loop into
	// a linear scan of ψ_v. FillLabel leaves both all -1 on return.
	hostZ, nextZ []int32
	// entries accumulates one label's ζ entries (reused across nodes:
	// appends stop allocating once it reaches the high-water mark); meta
	// records the per-x spans, which coincide for the keys that share a
	// list, and levelEnd[i] is where level i's records end in meta. The
	// persistent label gets one exact-size copy of each, so append-growth
	// never memmoves label data twice.
	entries  []TransEntry
	meta     []transMeta
	levelEnd []int
}

type transMeta struct {
	x          int32
	start, end int32
}

// NewLabelScratch allocates scratch for labeling nodes of an
// n-node space.
func NewLabelScratch(n int) *LabelScratch {
	s := &LabelScratch{hostZ: make([]int32, n), nextZ: make([]int32, n)}
	for v := range s.nextZ {
		s.hostZ[v], s.nextZ[v] = -1, -1
	}
	return s
}

// FillLabel assembles node u's label: host distances, the zooming
// pointer sequence, and the translation maps ζ_ui. It is the one label
// construction in the repo — the full scheme build and the churn
// engine's localized repair both call it, which is what makes "repair
// only the dirty nodes" sound: a clean node's inputs being unchanged
// implies the identical label bits.
func FillLabel(cons *triangulation.Construction, u int, host core.Enum, level0Count int, vs VirtualSets, sc *LabelScratch) (*Label, error) {
	for h, w := range host.Nodes() {
		sc.hostZ[w] = int32(h)
	}
	lab, err := fillLabel(cons, u, host, level0Count, vs, sc)
	for _, w := range host.Nodes() {
		sc.hostZ[w], sc.nextZ[w] = -1, -1
	}
	return lab, err
}

func fillLabel(cons *triangulation.Construction, u int, host core.Enum, level0Count int, vs VirtualSets, sc *LabelScratch) (*Label, error) {
	idx := cons.Idx
	lab := &Label{
		Level0Count: level0Count,
		Dists:       make([]float64, host.Size()),
		ZoomPsi:     make([]int32, cons.IMax),
		Trans:       make([]LevelMap, cons.IMax),
		hostNodes:   host.Nodes(),
	}
	for h := 0; h < host.Size(); h++ {
		lab.Dists[h] = idx.Dist(u, host.Node(h))
	}
	z0 := int(sc.hostZ[cons.Zoom[u][0]])
	if z0 < 0 || z0 >= level0Count {
		return nil, fmt.Errorf("distlabel: f_%d,0 not in the shared level-0 prefix", u)
	}
	lab.Zoom0 = z0
	for i := 0; i < cons.IMax; i++ {
		f := cons.Zoom[u][i]
		next := cons.Zoom[u][i+1]
		psi, ok := vs.Enum(f).IndexOf(next)
		if !ok {
			return nil, fmt.Errorf("distlabel: claim 3.5(c) violated: f_(%d,%d)=%d not a virtual neighbor of f_(%d,%d)=%d",
				u, i+1, next, u, i, f)
		}
		lab.ZoomPsi[i] = int32(psi)
	}
	// Translation maps ζ_ui. The next-level neighbors are marked in a
	// node-indexed scratch array carrying their host index; each v's
	// entries then come from one linear scan of ψ_v's node list — the
	// index in that list IS psi — with no search in the hot pair loop,
	// and entries emerge already sorted by Y. One backing array per label
	// replaces per-x entry slices; the keys v of a level whose ψ_v is the
	// identity all translate through the same list (Y = the next-level
	// neighbor's id), stored once and aliased by each of them.
	sc.entries, sc.meta, sc.levelEnd = sc.entries[:0], sc.meta[:0], sc.levelEnd[:0]
	for i := 0; i < cons.IMax; i++ {
		sc.level = intset.MergeSorted(sc.level[:0], cons.X[u][i], cons.Y[u][i])
		sc.next = intset.MergeSorted(sc.next[:0], cons.X[u][i+1], cons.Y[u][i+1])
		for _, wNode := range sc.next {
			z := sc.hostZ[wNode]
			if z < 0 {
				return nil, fmt.Errorf("distlabel: level-%d neighbor %d missing from host enum of %d", i+1, wNode, u)
			}
			sc.nextZ[wNode] = z
		}
		lo := len(sc.meta)
		idStart, idEnd := -1, -1 // the level's identity list, once emitted
		for _, v := range sc.level {
			x := sc.hostZ[v]
			if x < 0 {
				return nil, fmt.Errorf("distlabel: level-%d neighbor %d missing from host enum of %d", i, v, u)
			}
			first := len(sc.entries)
			if vs.Identity(v) {
				// ψ_v(w) = w: identical to what either search branch below
				// would produce, and the same for every such v.
				if idEnd < 0 {
					for _, wNode := range sc.next {
						sc.entries = append(sc.entries, TransEntry{Y: int32(wNode), Z: sc.nextZ[wNode]})
					}
					idStart, idEnd = first, len(sc.entries)
				}
				if idEnd > idStart {
					sc.meta = append(sc.meta, transMeta{x: x, start: int32(idStart), end: int32(idEnd)})
				}
				continue
			}
			tvNodes := vs.rows[v]
			if len(tvNodes) <= 8*len(sc.next) {
				for psi, wNode := range tvNodes {
					if z := sc.nextZ[wNode]; z >= 0 {
						sc.entries = append(sc.entries, TransEntry{Y: int32(psi), Z: z})
					}
				}
			} else {
				// T_v dwarfs the next-level ring: binary-search each next
				// neighbor in ψ_v instead of scanning all of it. w ascends,
				// ψ_v is id-sorted, so psi still ascends.
				for _, wNode := range sc.next {
					psi := sort.SearchInts(tvNodes, wNode)
					if psi < len(tvNodes) && tvNodes[psi] == wNode {
						sc.entries = append(sc.entries, TransEntry{Y: int32(psi), Z: sc.nextZ[wNode]})
					}
				}
			}
			if len(sc.entries) > first {
				sc.meta = append(sc.meta, transMeta{x: x, start: int32(first), end: int32(len(sc.entries))})
			}
		}
		for _, wNode := range sc.next {
			sc.nextZ[wNode] = -1
		}
		// sc.level ascends by node id, the keys by host index.
		slices.SortFunc(sc.meta[lo:], func(a, b transMeta) int { return cmp.Compare(a.x, b.x) })
		sc.levelEnd = append(sc.levelEnd, len(sc.meta))
	}
	buf := slices.Clone(sc.entries)
	keys, lists := make([]int32, len(sc.meta)), make([][]TransEntry, len(sc.meta))
	for k, m := range sc.meta {
		keys[k], lists[k] = m.x, buf[m.start:m.end:m.end]
	}
	lo := 0
	for i, hi := range sc.levelEnd {
		lab.Trans[i] = LevelMap{Keys: keys[lo:hi:hi], Lists: lists[lo:hi:hi]}
		lo = hi
	}
	return lab, nil
}

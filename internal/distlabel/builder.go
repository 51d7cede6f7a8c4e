package distlabel

import (
	"fmt"
	"sort"

	"rings/internal/core"
	"rings/internal/intset"
	"rings/internal/triangulation"
)

// VirtualSet provides the virtual enumerations ψ_v to the label filler:
// Nodes(v) is T_v ascending by id, IndexOf(v, w) is ψ_v(w). The scheme
// build backs it with materialized core.Enums; the churn engine backs it
// with its maintained T-set representation (a shared identity slice for
// the nodes whose Z-set saturates the space, explicit sorted lists for
// the rest), so both produce bit-identical labels from one fill
// implementation.
type VirtualSet interface {
	// Nodes returns T_v ascending by id (shared; do not modify).
	Nodes(v int) []int
	// IndexOf reports ψ_v(w).
	IndexOf(v, w int) (int, bool)
	// Identity reports whether ψ_v is the identity enumeration of the
	// whole node set (T_v = {0..n-1}, ψ_v(w) = w). Every identity key of
	// one level translates through the same list, which the filler emits
	// once and the keys share; the entries themselves are what the
	// per-entry searches would produce.
	Identity(v int) bool
}

// enumVirtualSet backs VirtualSet with materialized enumerations.
type enumVirtualSet []core.Enum

func (e enumVirtualSet) Nodes(v int) []int            { return e[v].Nodes() }
func (e enumVirtualSet) IndexOf(v, w int) (int, bool) { return e[v].IndexOf(w) }

// Identity: T_v is a set of ids below n enumerated ascending, so holding
// all n of them makes ψ_v the identity.
func (e enumVirtualSet) Identity(v int) bool { return e[v].Size() == len(e) }

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
	// nextZ[w] is w's host index when w is a next-level neighbor of the
	// node being labeled, else -1. The mark array turns the ζ-map inner
	// loop into a linear scan of ψ_v with zero hash lookups.
	nextZ []int32
	// entries accumulates one level's ζ entries (reused across levels
	// and nodes: appends stop allocating once it reaches the high-water
	// mark); meta records the per-x spans, which coincide for the keys
	// that share a list. The persistent label gets one exact-size copy
	// per level, so append-growth never memmoves label data twice.
	entries []TransEntry
	meta    []transMeta
}

type transMeta struct {
	x          int32
	start, end int32
}

// NewLabelScratch allocates scratch for labeling nodes of an
// n-node space.
func NewLabelScratch(n int) *LabelScratch {
	s := &LabelScratch{nextZ: make([]int32, n)}
	for v := range s.nextZ {
		s.nextZ[v] = -1
	}
	return s
}

// FillLabel assembles node u's label: host distances, the zooming
// pointer sequence, and the translation maps ζ_ui. It is the one label
// construction in the repo — the full scheme build and the churn
// engine's localized repair both call it, which is what makes "repair
// only the dirty nodes" sound: a clean node's inputs being unchanged
// implies the identical label bits.
func FillLabel(cons *triangulation.Construction, u int, host core.Enum, level0Count int, vs VirtualSet, sc *LabelScratch) (*Label, error) {
	idx := cons.Idx
	lab := &Label{
		Level0Count: level0Count,
		Dists:       make([]float64, host.Size()),
		ZoomPsi:     make([]int32, cons.IMax),
		Trans:       make([]LevelMap, cons.IMax),
		hostNodes:   append([]int(nil), host.Nodes()...),
	}
	for h := 0; h < host.Size(); h++ {
		lab.Dists[h] = idx.Dist(u, host.Node(h))
	}
	z0, ok := host.IndexOf(cons.Zoom[u][0])
	if !ok || z0 >= level0Count {
		return nil, fmt.Errorf("distlabel: f_%d,0 not in the shared level-0 prefix", u)
	}
	lab.Zoom0 = z0
	for i := 0; i < cons.IMax; i++ {
		f := cons.Zoom[u][i]
		next := cons.Zoom[u][i+1]
		psi, ok := vs.IndexOf(f, next)
		if !ok {
			return nil, fmt.Errorf("distlabel: claim 3.5(c) violated: f_(%d,%d)=%d not a virtual neighbor of f_(%d,%d)=%d",
				u, i+1, next, u, i, f)
		}
		lab.ZoomPsi[i] = int32(psi)
	}
	// Translation maps ζ_ui. The next-level neighbors are marked in a
	// node-indexed scratch array carrying their host index; each v's
	// entries then come from one linear scan of ψ_v's node list — the
	// index in that list IS psi — with zero hash lookups in the hot pair
	// loop, and entries emerge already sorted by Y. One backing array per
	// level replaces per-x entry slices; the keys v whose ψ_v is the
	// identity all translate through the same list (Y = the next-level
	// neighbor's id), stored once and aliased by each of them.
	for i := 0; i < cons.IMax; i++ {
		sc.level = intset.MergeSorted(sc.level[:0], cons.X[u][i], cons.Y[u][i])
		sc.next = intset.MergeSorted(sc.next[:0], cons.X[u][i+1], cons.Y[u][i+1])
		for _, wNode := range sc.next {
			z, ok := host.IndexOf(wNode)
			if !ok {
				return nil, fmt.Errorf("distlabel: level-%d neighbor %d missing from host enum of %d", i+1, wNode, u)
			}
			sc.nextZ[wNode] = int32(z)
		}
		sc.entries = sc.entries[:0]
		sc.meta = sc.meta[:0]
		idStart, idEnd := -1, -1 // the level's identity list, once emitted
		for _, v := range sc.level {
			x, ok := host.IndexOf(v)
			if !ok {
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
					sc.meta = append(sc.meta, transMeta{x: int32(x), start: int32(idStart), end: int32(idEnd)})
				}
				continue
			}
			tvNodes := vs.Nodes(v)
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
				sc.meta = append(sc.meta, transMeta{x: int32(x), start: int32(first), end: int32(len(sc.entries))})
			}
		}
		for _, wNode := range sc.next {
			sc.nextZ[wNode] = -1
		}
		buf := make([]TransEntry, len(sc.entries))
		copy(buf, sc.entries)
		lm := make(LevelMap, len(sc.meta))
		for _, m := range sc.meta {
			lm[m.x] = buf[m.start:m.end:m.end]
		}
		lab.Trans[i] = lm
	}
	return lab, nil
}

package churn

import (
	"sort"
	"time"

	"rings/internal/distlabel"
	"rings/internal/intset"
	"rings/internal/par"
)

// listClean reports whether newList denotes the same node sequence as
// oldList across a mutation batch: identical values, every value still
// meaning the same node (old2new[v] == v). Raw int equality alone is
// not enough — a departed slot can be re-filled by a renamed survivor,
// leaving the id equal while the node behind it changed — and the
// stability check closes exactly that hole.
func listClean(oldList, newList []int, old2new []int32) bool {
	if len(oldList) != len(newList) {
		return false
	}
	for k, ov := range oldList {
		if ov != newList[k] || int(old2new[ov]) != ov {
			return false
		}
	}
	return true
}

// translateSorted maps a sorted id list through the batch permutation:
// departed values drop, renamed values reposition. When nothing changed
// the original slice is returned unchanged (shared=true) so the common
// case allocates nothing.
func translateSorted(old []int, old2new []int32) (out []int, shared, edited bool) {
	stable := true
	for _, v := range old {
		if int(old2new[v]) != v {
			stable = false
			break
		}
	}
	if stable {
		return old, true, false
	}
	out = make([]int, 0, len(old)+1)
	var displaced []int
	for _, v := range old {
		nv := int(old2new[v])
		switch {
		case nv < 0:
			// departed
		case nv == v:
			out = append(out, v)
		default:
			displaced = append(displaced, nv)
		}
	}
	for _, nv := range displaced {
		out = insertSorted(out, nv)
	}
	return out, false, true
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func containsSorted(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// zEdit inserts or removes v in Z_u with copy-on-write: rows shared
// with the previous state are cloned before the first edit, so the
// previous commit's artifacts stay frozen.
func (st *state) zEdit(u, v int, insert bool) {
	row := st.zAll[u]
	if !st.zOwned[u] {
		row = append(make([]int, 0, len(row)+1), row...)
		st.zOwned[u] = true
	}
	if insert {
		row = insertSorted(row, v)
	} else {
		row = removeSorted(row, v)
	}
	st.zAll[u] = row
}

// repairLabels maintains the label layer: Z-sets patched from the
// membership and net-mask diffs, T-sets through the identity fast path,
// labels refilled only where their inputs changed. A nil prev (or a
// broken global precondition: the Z scale ladder moved, or IMax
// crossed) runs the full builders instead — same code, same bits,
// different driver.
func (m *Mutator) repairLabels(prev *state, st *state, new2old, old2new []int32, ost *OpStats) (zSec, tSec, fillSec float64, err error) {
	cons := st.cons
	n := st.n
	workers := m.cfg.Oracle.Workers
	nw := par.Workers(workers, n)
	st.zp = distlabel.ZSetParams(cons)
	st.zmasks = st.zp.Masks(cons)
	st.identity = distlabel.IdentitySet(n)
	st.level0Count = distlabel.Level0Count(cons)

	full := prev == nil || prev.labels == nil ||
		!st.zp.Equal(prev.zp) || cons.IMax != prev.cons.IMax
	ost.FullFallback = full

	// --- Z-sets ---------------------------------------------------------
	t0 := time.Now()
	zEdited := make([]bool, n)
	if full {
		st.zAll = distlabel.BuildZSets(cons, workers)
		st.zOwned = make([]bool, n)
		for u := range st.zOwned {
			st.zOwned[u] = true
			zEdited[u] = true
		}
		ost.ZRecomputed = n
	} else {
		st.zAll = make([][]int, n)
		st.zOwned = make([]bool, n)
		par.For(workers, n, func(u int) {
			o := new2old[u]
			if o < 0 {
				st.zAll[u] = distlabel.BuildZSet(cons, st.zp, st.zmasks, u)
				st.zOwned[u] = true
				zEdited[u] = true
				return
			}
			row, shared, edited := translateSorted(prev.zAll[int(o)], old2new)
			st.zAll[u] = row
			st.zOwned[u] = !shared
			zEdited[u] = edited
		})
		// Joined nodes enter the surviving Z-sets point-wise.
		for x := 0; x < n; x++ {
			if new2old[x] >= 0 {
				continue
			}
			ost.ZRecomputed++
			for _, nb := range st.frozen.Sorted(x) {
				u := nb.Node
				if u == x || new2old[u] < 0 {
					continue // fresh rows already include every joiner
				}
				if st.zp.Qualifies(st.zmasks, x, nb.Dist) {
					st.zEdit(u, x, true)
					zEdited[u] = true
				}
			}
		}
		// Net-membership diffs: a surviving node whose mask membership
		// changed at scale k flips its qualification exactly for probes
		// in the distance band (t_{k-1}, t_k].
		for k := range st.zp.Tks {
			newMask := st.zmasks[k]
			oldMask := prev.zmasks[k]
			for w := 0; w < n; w++ {
				o := new2old[w]
				if o < 0 || oldMask[o] == newMask[w] {
					continue
				}
				lo := 0
				if k > 0 {
					lo = st.frozen.BallCount(w, st.zp.Tks[k-1])
				}
				band := st.frozen.Ball(w, st.zp.Tks[k])[lo:]
				for _, nb := range band {
					u := nb.Node
					if new2old[u] < 0 {
						continue
					}
					desired := newMask[w]
					if desired != containsSorted(st.zAll[u], w) {
						st.zEdit(u, w, desired)
						zEdited[u] = true
					}
				}
			}
		}
		for u := 0; u < n; u++ {
			if zEdited[u] && new2old[u] >= 0 {
				ost.ZPatched++
			}
		}
	}
	zSec = time.Since(t0).Seconds()

	// --- T-sets (virtual enumerations) ----------------------------------
	t1 := time.Now()
	st.xAll = distlabel.BuildXAll(cons, workers)
	st.tExpl = make([][]int, n)
	tIdxDirty := make([]bool, n)
	sets := make([]intset.Set, nw)
	rebuilt := make([]bool, n)
	par.ForWorker(workers, n, func(w, u int) {
		if len(st.zAll[u]) == n {
			return // Z saturates the space: T_u is the identity enumeration
		}
		o := -1
		if !full && new2old[u] >= 0 {
			o = int(new2old[u])
		}
		rebuild := full || o < 0 || prev.tExpl[o] == nil ||
			zEdited[u] || !listClean(prev.xAll[o], st.xAll[u], old2new)
		if !rebuild {
			for _, v := range st.xAll[u] {
				if zEdited[v] {
					rebuild = true
					break
				}
			}
		}
		if !rebuild {
			for _, v := range prev.tExpl[o] {
				if int(old2new[v]) != v {
					rebuild = true
					break
				}
			}
		}
		if rebuild {
			st.tExpl[u] = distlabel.BuildTSet(st.xAll, st.zAll, u, &sets[w], st.identity)
			rebuilt[u] = true
		} else {
			st.tExpl[u] = prev.tExpl[o]
		}
	})
	// ψ-index stability: identity → identity shifts no surviving index
	// (the only moved id is a rename, which every dependent label sees
	// in its ring diff). Any transition involving an explicit list is
	// compared index-by-index.
	if !full {
		par.For(workers, n, func(u int) {
			o := new2old[u]
			if o < 0 {
				return // a joined node has no prior ψ; dependents are ring-dirty
			}
			oldExpl := prev.tExpl[int(o)]
			if oldExpl == nil && st.tExpl[u] == nil {
				return
			}
			if oldExpl == nil || st.tExpl[u] == nil || rebuilt[u] {
				tIdxDirty[u] = !psiStable(oldExpl, st.tExpl[u], old2new, n)
				return
			}
		})
	}
	for u := 0; u < n; u++ {
		if rebuilt[u] {
			ost.TRebuilt++
		}
	}
	st.maxT = 0
	for u := 0; u < n; u++ {
		sz := n
		if st.tExpl[u] != nil {
			sz = len(st.tExpl[u])
		}
		if sz > st.maxT {
			st.maxT = sz
		}
	}
	tSec = time.Since(t1).Seconds()

	// --- Dirty derivation + label fill ----------------------------------
	t2 := time.Now()
	dirty := make([]bool, n)
	ringDirty := make([]bool, n)
	if full {
		for u := range dirty {
			dirty[u] = true
			ringDirty[u] = true
		}
	} else {
		prevCons := prev.cons
		level0Changed := st.level0Count != prev.level0Count
		par.For(workers, n, func(u int) {
			if int(new2old[u]) != u || level0Changed {
				dirty[u], ringDirty[u] = true, true
				return
			}
			for i := 0; i <= cons.IMax; i++ {
				if !listClean(prevCons.X[u][i], cons.X[u][i], old2new) ||
					!listClean(prevCons.Y[u][i], cons.Y[u][i], old2new) {
					dirty[u], ringDirty[u] = true, true
					return
				}
			}
			if !listClean(prevCons.Zoom[u], cons.Zoom[u], old2new) {
				dirty[u], ringDirty[u] = true, true
				return
			}
			// ψ-dependencies: every translation target and zoom hop.
			for i := 0; i <= cons.IMax; i++ {
				for _, v := range cons.X[u][i] {
					if tIdxDirty[v] {
						dirty[u] = true
						return
					}
				}
				for _, v := range cons.Y[u][i] {
					if tIdxDirty[v] {
						dirty[u] = true
						return
					}
				}
			}
			for _, f := range cons.Zoom[u] {
				if tIdxDirty[f] {
					dirty[u] = true
					return
				}
			}
		})
	}

	st.labels = make([]*distlabel.Label, n)
	var dirtyList []int
	for u := 0; u < n; u++ {
		if dirty[u] {
			dirtyList = append(dirtyList, u)
		} else {
			st.labels[u] = prev.labels[u]
		}
		if ringDirty[u] {
			ost.DirtyRings++
		}
	}
	vs := distlabel.NewVirtualSets(st.identity, st.tExpl)
	scr := make([]*distlabel.LabelScratch, nw)
	lvl0 := make([][]int, nw)
	fsets := make([]intset.Set, nw)
	for w := range scr {
		scr[w] = distlabel.NewLabelScratch(n)
	}
	errs := make([]error, nw)
	par.ForWorker(workers, len(dirtyList), func(w, k int) {
		if errs[w] != nil {
			return
		}
		u := dirtyList[k]
		host, buf := distlabel.BuildHostEnum(cons, u, &fsets[w], lvl0[w])
		lvl0[w] = buf
		lab, err := distlabel.FillLabel(cons, u, host, st.level0Count, vs, scr[w])
		if err != nil {
			errs[w] = err
			return
		}
		st.labels[u] = lab
	})
	for _, e := range errs {
		if e != nil {
			return 0, 0, 0, e
		}
	}
	ost.RepairedLabels = len(dirtyList)
	ost.ReusedLabels = n - len(dirtyList)
	fillSec = time.Since(t2).Seconds()
	return zSec, tSec, fillSec, nil
}

// psiStable reports whether every stable surviving id keeps both its
// membership and its ψ-index across the transition between two T-set
// representations (nil = the identity enumeration of the respective id
// space). Renamed and joined ids are deliberately out of scope: any
// label referencing them holds their id in a ring, and the ring
// content diff already marks it dirty.
func psiStable(oldT, newT []int, old2new []int32, n int) bool {
	n0 := len(old2new)
	indexOld := func(v int) (int, bool) {
		if oldT == nil {
			return v, v < n0
		}
		i := sort.SearchInts(oldT, v)
		return i, i < len(oldT) && oldT[i] == v
	}
	indexNew := func(v int) (int, bool) {
		if newT == nil {
			return v, v < n
		}
		i := sort.SearchInts(newT, v)
		return i, i < len(newT) && newT[i] == v
	}
	for v := 0; v < n0 && v < n; v++ {
		if int(old2new[v]) != v {
			continue
		}
		oi, oin := indexOld(v)
		ni, nin := indexNew(v)
		if oin != nin || (oin && oi != ni) {
			return false
		}
	}
	return true
}

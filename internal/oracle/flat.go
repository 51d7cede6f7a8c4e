package oracle

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"rings/internal/distlabel"
	"rings/internal/triangulation"
)

// FlatSnap is the flat serving representation of a snapshot's estimator:
// every label (host distances, zooming pointers, ζ-map triples) or beacon
// vector packed into one contiguous arena with offset-index headers. The
// hot read path walks int32/float64 views over that single allocation —
// no pointer chasing, no map lookups, no per-query allocation — and the
// persisted v2 snapshot format is exactly these arena bytes, so a warm
// start is an mmap plus header validation instead of a decode.
//
// A FlatSnap is immutable after construction. When backed by an mmap
// (m != nil), readers pin it around each query batch (see pin/unpin) so
// Engine.Swap can never unmap the arena under an in-flight reader; heap
// backed arenas skip the refcount entirely — the GC owns their lifetime.
type FlatSnap struct {
	n      int
	scheme string // SchemeLabels or SchemeBeacons
	buf    []byte // the one backing arena (heap slice or mmap window)
	m      *mapping
	// refs counts the creation reference plus active reader pins; only
	// meaningful for mmap-backed arenas. The last release unmaps.
	refs   atomic.Int64
	closed atomic.Bool
	// unmapped flips when the last reference actually munmaps (observed
	// by Mapped; f.m itself stays set so a racing pin still classifies
	// the arena as mmap-backed and fails cleanly).
	unmapped atomic.Bool

	sections []flatSection

	// SchemeLabels views. Per node u: Dists is dists[distOff[u]:distOff[u+1]],
	// ZoomPsi is psi[psiOff[u]:psiOff[u+1]], and its translation-map groups
	// (one per level) are group indices levOff[u]..levOff[u+1]. A group g
	// holds its sorted x keys at xkeys[xkOff[g]:xkOff[g+1]]; key slot k
	// names its Y-sorted (Y, Z) pairs by the span pair
	// (s, e) = entSpan[2k], entSpan[2k+1]: they sit interleaved at
	// ents[2s:2e]. Keys of a group whose lists are equal carry the same
	// span — each distinct list of a group is stored once (saturated
	// T-sets make every list of a group equal at lab scale).
	distOff []int32
	dists   []float64
	l0      []int32 // per-node Level0Count
	zoom0   []int32
	psiOff  []int32
	psi     []int32
	levOff  []int32
	xkOff   []int32
	xkeys   []int32
	entSpan []int32
	ents    []int32
	// lists is countLists() of the finished arena (for the gauges).
	lists int

	// SchemeBeacons views: node u's beacon set is ids bIDs[bOff[u]:bOff[u+1]]
	// (ascending) with distances bDist over the same range.
	bOff  []int32
	bIDs  []int32
	bDist []float64
}

// flatSection locates one typed array inside the arena. The section
// directory travels in the v2 persist header, so a loader rebuilds the
// views straight over the file bytes.
type flatSection struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "f64" | "i32"
	Off   int64  `json:"off"`  // byte offset into the arena
	Count int64  `json:"count"`
}

// bytes reports the section's size in the arena.
func (s flatSection) bytes() int64 {
	if s.Kind == "f64" {
		return 8 * s.Count
	}
	return 4 * s.Count
}

// Bytes reports the arena size (what one warm replica maps or holds).
func (f *FlatSnap) Bytes() int { return len(f.buf) }

// Mapped reports whether the arena is a live mmap window (shared page
// cache) rather than a private heap copy; false again once the last
// reference has unmapped it.
func (f *FlatSnap) Mapped() bool { return f.m != nil && !f.unmapped.Load() }

// pin takes a reader reference on an mmap-backed arena. It fails only
// when the creation reference is already gone (the snapshot was closed
// after being swapped out), in which case the caller must reload the
// engine state — a newer snapshot is necessarily installed by then.
// Heap-backed arenas always pin successfully at zero cost.
//
//ringvet:hotpath
func (f *FlatSnap) pin() bool {
	if f.m == nil {
		return true
	}
	for {
		r := f.refs.Load()
		if r <= 0 {
			return false
		}
		if f.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// unpin drops a reader reference; the last reference unmaps the arena.
//
//ringvet:hotpath
func (f *FlatSnap) unpin() {
	if f.m == nil {
		return
	}
	if f.refs.Add(-1) == 0 {
		f.unmapped.Store(true)
		f.m.close()
	}
}

// release drops the creation reference (idempotent). In-flight readers
// holding pins keep the mapping alive; the last unpin unmaps.
func (f *FlatSnap) release() {
	if f == nil || f.m == nil {
		return
	}
	if f.closed.CompareAndSwap(false, true) {
		f.unpin()
	}
}

// Arena section names (fixed identifiers in the v2 persist header).
const (
	secDists   = "dists"
	secDistOff = "dist_off"
	secL0      = "l0"
	secZoom0   = "zoom0"
	secPsiOff  = "psi_off"
	secPsi     = "psi"
	secLevOff  = "lev_off"
	secXkOff   = "xk_off"
	secXkeys   = "xkeys"
	secEntSpan = "ent_span"
	secEnts    = "ents"
	secBOff    = "b_off"
	secBIDs    = "b_ids"
	secBDist   = "b_dist"

	// secEntOffOld is the monotone per-key prefix table of the layout
	// that stored every key's list separately. Its ents section means
	// something else than today's, so a directory naming it is refused
	// outright (ErrOldLayout) instead of being read under the new rules.
	secEntOffOld = "ent_off"
)

// sectionNames lists every arena section, labels' then beacons'.
var sectionNames = []string{
	secDists, secDistOff, secL0, secZoom0, secPsiOff, secPsi, secLevOff,
	secXkOff, secXkeys, secEntSpan, secEnts, secBOff, secBIDs, secBDist,
}

// ErrOldLayout rejects a v2 snapshot whose arena predates shared entry
// lists. No reader is kept for that layout: the file is a cache of a
// deterministic build, so the remedy is to delete it.
var ErrOldLayout = errors.New("oracle: snapshot written before shared entry lists; delete it to rebuild")

// flatLayout accumulates the section directory while sizing the arena:
// float64 sections first (keeping them 8-aligned from a 0-aligned base),
// then the int32 sections.
type flatLayout struct {
	sections []flatSection
	off      int64
}

func (l *flatLayout) add(name, kind string, count int) {
	s := flatSection{Name: name, Kind: kind, Off: l.off, Count: int64(count)}
	l.sections = append(l.sections, s)
	l.off += s.bytes()
}

// alignedBytes allocates a zeroed byte slice whose base is 8-aligned
// (backed by a []uint64, which the runtime aligns), so float64 views
// over any 8-aligned section offset are legal.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)[:n]
}

// bind constructs the typed views over buf from the section directory.
// It validates section identity, alignment and bounds — this is the
// entire "decode" of a v2 snapshot payload.
func (f *FlatSnap) bind() error {
	i32 := func(s flatSection) ([]int32, error) {
		if s.Off%4 != 0 || s.Off+4*s.Count > int64(len(f.buf)) {
			return nil, fmt.Errorf("oracle: flat section %s out of bounds (off %d count %d of %d bytes)", s.Name, s.Off, s.Count, len(f.buf))
		}
		if s.Count == 0 {
			return nil, nil
		}
		return unsafe.Slice((*int32)(unsafe.Pointer(&f.buf[s.Off])), s.Count), nil
	}
	f64 := func(s flatSection) ([]float64, error) {
		if s.Off%8 != 0 || s.Off+8*s.Count > int64(len(f.buf)) {
			return nil, fmt.Errorf("oracle: flat section %s out of bounds (off %d count %d of %d bytes)", s.Name, s.Off, s.Count, len(f.buf))
		}
		if s.Count == 0 {
			return nil, nil
		}
		return unsafe.Slice((*float64)(unsafe.Pointer(&f.buf[s.Off])), s.Count), nil
	}
	var err error
	seen := make(map[string]bool, len(f.sections))
	for _, s := range f.sections {
		if seen[s.Name] {
			return fmt.Errorf("oracle: duplicate flat section %s", s.Name)
		}
		seen[s.Name] = true
		switch s.Name {
		case secDists:
			f.dists, err = f64(s)
		case secDistOff:
			f.distOff, err = i32(s)
		case secL0:
			f.l0, err = i32(s)
		case secZoom0:
			f.zoom0, err = i32(s)
		case secPsiOff:
			f.psiOff, err = i32(s)
		case secPsi:
			f.psi, err = i32(s)
		case secLevOff:
			f.levOff, err = i32(s)
		case secXkOff:
			f.xkOff, err = i32(s)
		case secXkeys:
			f.xkeys, err = i32(s)
		case secEntSpan:
			f.entSpan, err = i32(s)
		case secEntOffOld:
			return ErrOldLayout
		case secEnts:
			f.ents, err = i32(s)
		case secBOff:
			f.bOff, err = i32(s)
		case secBIDs:
			f.bIDs, err = i32(s)
		case secBDist:
			f.bDist, err = f64(s)
		default:
			return fmt.Errorf("oracle: unknown flat section %q", s.Name)
		}
		if err != nil {
			return err
		}
	}
	// Structural validation (offset monotonicity etc.) is separate:
	// builders bind empty arenas before the fill pass, so only loaded
	// payloads run validate (see arenaSnapshot).
	return nil
}

// validate checks the structural invariants the estimate path indexes
// by, so a corrupt-but-checksum-passing header can never cause an
// out-of-bounds read at query time.
func (f *FlatSnap) validate() error {
	checkOff := func(name string, off []int32, wantLen int, bound int) error {
		if len(off) != wantLen {
			return fmt.Errorf("oracle: flat section %s has %d offsets, want %d", name, len(off), wantLen)
		}
		prev := int32(0)
		for i, o := range off {
			if o < prev || int(o) > bound {
				return fmt.Errorf("oracle: flat section %s offset %d = %d not monotone within [0, %d]", name, i, o, bound)
			}
			prev = o
		}
		if wantLen > 0 && off[0] != 0 {
			return fmt.Errorf("oracle: flat section %s does not start at 0", name)
		}
		return nil
	}
	switch f.scheme {
	case SchemeLabels:
		if len(f.zoom0) != f.n || len(f.l0) != f.n {
			return fmt.Errorf("oracle: flat label arenas sized for %d nodes, want %d", len(f.zoom0), f.n)
		}
		if err := checkOff(secDistOff, f.distOff, f.n+1, len(f.dists)); err != nil {
			return err
		}
		if err := checkOff(secPsiOff, f.psiOff, f.n+1, len(f.psi)); err != nil {
			return err
		}
		groups := 0
		if len(f.levOff) > 0 {
			groups = int(f.levOff[len(f.levOff)-1])
		}
		if err := checkOff(secLevOff, f.levOff, f.n+1, groups); err != nil {
			return err
		}
		if err := checkOff(secXkOff, f.xkOff, groups+1, len(f.xkeys)); err != nil {
			return err
		}
		if len(f.ents)%2 != 0 {
			return fmt.Errorf("oracle: flat ents length %d is odd", len(f.ents))
		}
		if len(f.entSpan) != 2*len(f.xkeys) {
			return fmt.Errorf("oracle: flat section %s has %d bounds for %d keys", secEntSpan, len(f.entSpan), len(f.xkeys))
		}
		// Spans may repeat and need not be monotone, so each is bounded on
		// its own.
		nEnts := int32(len(f.ents) / 2)
		for k := 0; k < len(f.xkeys); k++ {
			start, end := f.entSpan[2*k], f.entSpan[2*k+1]
			if start < 0 || end < start || end > nEnts {
				return fmt.Errorf("oracle: flat section %s key %d spans [%d, %d) outside [0, %d]", secEntSpan, k, start, end, nEnts)
			}
		}
	case SchemeBeacons:
		if err := checkOff(secBOff, f.bOff, f.n+1, len(f.bIDs)); err != nil {
			return err
		}
		if len(f.bDist) != len(f.bIDs) {
			return fmt.Errorf("oracle: flat beacon arenas disagree: %d ids, %d distances", len(f.bIDs), len(f.bDist))
		}
	default:
		return fmt.Errorf("oracle: flat snapshot has unknown scheme %q", f.scheme)
	}
	return nil
}

// countLists counts the entry lists the arena stores: a key whose span
// begins at or past the end of every earlier one brought its own list,
// a key sharing a list points back below that.
func (f *FlatSnap) countLists() int {
	lists, stored := 0, int32(0)
	for k := 0; k < len(f.xkeys); k++ {
		if start, end := f.entSpan[2*k], f.entSpan[2*k+1]; end > start && start >= stored {
			lists++
			stored = end
		}
	}
	return lists
}

// listIndex places ζ entry lists in the ents section, each distinct list
// of a group once: a list equal to one the current group already stored
// gets that one's span instead of a second copy. Equality is by content —
// slice identity (the builder's aliased identity keys) is only the
// shortcut — so the arena bytes depend on nothing but what the labels
// say, whichever way their lists happen to be held in memory.
type listIndex struct {
	lists [][]distlabel.TransEntry // every stored list, in arena order
	start []int32                  // start[i] is lists[i]'s first entry index in ents
	older []int32                  // older[i] is the previous list of the same group and hash, or -1
	head  map[uint64]int32         // content hash -> newest list of the current group
	last  int32                    // the list the previous key of the group resolved to, or -1
	ents  int                      // entries stored so far
}

// nextGroup forgets the finished group's lists: sharing never crosses a
// (node, level) boundary.
func (ix *listIndex) nextGroup() {
	clear(ix.head)
	ix.last = -1
}

// place returns the span of entries, storing the list first if the
// current group holds no equal one. Empty lists take an empty span.
func (ix *listIndex) place(entries []distlabel.TransEntry) (start, end int32) {
	if len(entries) == 0 {
		return int32(ix.ents), int32(ix.ents)
	}
	at := ix.last
	if at < 0 || &ix.lists[at][0] != &entries[0] || len(ix.lists[at]) != len(entries) {
		at = ix.find(entries)
	}
	ix.last = at
	return ix.start[at], ix.start[at] + int32(len(entries))
}

// find looks entries up by content among the current group's stored
// lists (FNV-1a over the pairs, then a full comparison along the chain
// of that hash) and stores it as a new list when there is none.
func (ix *listIndex) find(entries []distlabel.TransEntry) int32 {
	h := uint64(14695981039346656037)
	for _, e := range entries {
		h = (h ^ (uint64(uint32(e.Y))<<32 | uint64(uint32(e.Z)))) * 1099511628211
	}
	newest, ok := ix.head[h]
	if !ok {
		newest = -1
	}
	for at := newest; at >= 0; at = ix.older[at] {
		if slices.Equal(ix.lists[at], entries) {
			return at
		}
	}
	at := int32(len(ix.lists))
	ix.lists = append(ix.lists, entries)
	ix.start = append(ix.start, int32(ix.ents))
	ix.older = append(ix.older, newest)
	ix.head[h] = at
	ix.ents += len(entries)
	return at
}

// newFlatFromLabels packs Theorem 3.4 labels into the flat arenas. The
// ζ-map keys are laid out sorted by x and each list Y-sorted as it
// arrives from the builder — the exact fold order distlabel.Estimate's
// harvest/lookup walk uses, so the flat answers are bit-identical; the
// lists themselves are stored once per group and content (see listIndex).
func newFlatFromLabels(labels []*distlabel.Label) (*FlatSnap, error) {
	n := len(labels)
	// Size pass.
	var nDists, nPsi, nGroups, nKeys int
	for u, lab := range labels {
		if lab == nil {
			return nil, fmt.Errorf("oracle: flat pack: nil label %d", u)
		}
		if len(lab.Trans) != len(lab.ZoomPsi) {
			// The estimate walk indexes Trans by ZoomPsi positions; the
			// builder and wire decoder both emit equal lengths (IMax).
			return nil, fmt.Errorf("oracle: flat pack: label %d has %d trans levels for %d zoom pointers", u, len(lab.Trans), len(lab.ZoomPsi))
		}
		nDists += len(lab.Dists)
		nPsi += len(lab.ZoomPsi)
		nGroups += len(lab.Trans)
		for _, lm := range lab.Trans {
			nKeys += len(lm)
		}
	}
	// Placement pass: the sorted keys and their spans, in key-slot order.
	// It runs before the arena exists because the arena's size is the
	// number of entries that survive the sharing.
	ix := listIndex{head: make(map[uint64]int32)}
	xkeys := make([]int32, 0, nKeys)
	spans := make([]int32, 0, 2*nKeys)
	for _, lab := range labels {
		for _, lm := range lab.Trans {
			ix.nextGroup()
			first := len(xkeys)
			for x := range lm {
				xkeys = append(xkeys, x)
			}
			slices.Sort(xkeys[first:])
			for _, x := range xkeys[first:] {
				start, end := ix.place(lm[x])
				spans = append(spans, start, end)
			}
		}
	}
	for _, c := range []int{nDists, nPsi, nGroups, nKeys, ix.ents} {
		if c > math.MaxInt32 {
			return nil, fmt.Errorf("oracle: flat pack: arena of %d elements exceeds the int32 offset space", c)
		}
	}

	var lay flatLayout
	lay.add(secDists, "f64", nDists)
	lay.add(secDistOff, "i32", n+1)
	lay.add(secL0, "i32", n)
	lay.add(secZoom0, "i32", n)
	lay.add(secPsiOff, "i32", n+1)
	lay.add(secPsi, "i32", nPsi)
	lay.add(secLevOff, "i32", n+1)
	lay.add(secXkOff, "i32", nGroups+1)
	lay.add(secXkeys, "i32", nKeys)
	lay.add(secEntSpan, "i32", 2*nKeys)
	lay.add(secEnts, "i32", 2*ix.ents)

	f := &FlatSnap{n: n, scheme: SchemeLabels, buf: alignedBytes(int(lay.off)), sections: lay.sections}
	f.refs.Store(1)
	if err := f.bind(); err != nil {
		return nil, err
	}

	// Fill pass.
	var dPos, pPos, gPos, kPos int
	for u, lab := range labels {
		f.distOff[u] = int32(dPos)
		dPos += copy(f.dists[dPos:], lab.Dists)
		f.l0[u] = int32(lab.Level0Count)
		f.zoom0[u] = int32(lab.Zoom0)
		f.psiOff[u] = int32(pPos)
		pPos += copy(f.psi[pPos:], lab.ZoomPsi)
		f.levOff[u] = int32(gPos)
		for _, lm := range lab.Trans {
			f.xkOff[gPos] = int32(kPos)
			gPos++
			kPos += len(lm)
		}
	}
	f.distOff[n] = int32(dPos)
	f.psiOff[n] = int32(pPos)
	f.levOff[n] = int32(gPos)
	f.xkOff[gPos] = int32(kPos)
	copy(f.xkeys, xkeys)
	copy(f.entSpan, spans)
	ePos := 0
	for _, l := range ix.lists {
		for _, e := range l {
			f.ents[ePos] = e.Y
			f.ents[ePos+1] = e.Z
			ePos += 2
		}
	}
	f.lists = f.countLists()
	return f, nil
}

// newFlatFromTri packs Theorem 3.2 beacon sets into the flat arenas,
// each node's beacons sorted ascending by id. Tri.Estimate folds min
// and max over an unordered map; the sorted-intersection fold visits
// exactly the same common-beacon set, so the extrema — and therefore
// the answers — are bit-identical.
func newFlatFromTri(tri *triangulation.Triangulation, n int) (*FlatSnap, error) {
	total := 0
	for u := 0; u < n; u++ {
		total += len(tri.Beacons(u))
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("oracle: flat pack: %d beacon entries exceed the int32 offset space", total)
	}
	var lay flatLayout
	lay.add(secBDist, "f64", total)
	lay.add(secBOff, "i32", n+1)
	lay.add(secBIDs, "i32", total)

	f := &FlatSnap{n: n, scheme: SchemeBeacons, buf: alignedBytes(int(lay.off)), sections: lay.sections}
	f.refs.Store(1)
	if err := f.bind(); err != nil {
		return nil, err
	}
	pos := 0
	var ids []int
	for u := 0; u < n; u++ {
		f.bOff[u] = int32(pos)
		m := tri.Beacons(u)
		ids = ids[:0]
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			f.bIDs[pos] = int32(id)
			f.bDist[pos] = m[id]
			pos++
		}
	}
	f.bOff[n] = int32(pos)
	return f, nil
}

// newFlatForSnapshot builds the flat serving arenas for a snapshot's
// estimator: labels when present, the triangulation's beacon sets
// otherwise. Both BuildSnapshot and the churn engine's delta commits
// run through this at assembly, so every served snapshot carries flat
// arenas and the persisted v2 format is always available.
func newFlatForSnapshot(s *Snapshot) (*FlatSnap, error) {
	if s.Labels != nil {
		return newFlatFromLabels(s.Labels)
	}
	if s.Tri != nil {
		return newFlatFromTri(s.Tri, s.N())
	}
	return nil, fmt.Errorf("oracle: snapshot has no estimator to flatten")
}

// materializeLabels rebuilds pointer-form labels from the label arenas
// — the inverse of newFlatFromLabels, reached only through
// Snapshot.MaterializeLabels (no serving path wants pointer labels).
// Entry lists come back in the same Y-sorted order they were packed in,
// and the keys of a group that share a span share one slice.
func (f *FlatSnap) materializeLabels() []*distlabel.Label {
	labels := make([]*distlabel.Label, f.n)
	bySpan := make(map[[2]int32][]distlabel.TransEntry)
	for u := 0; u < f.n; u++ {
		lab := &distlabel.Label{
			Level0Count: int(f.l0[u]),
			Zoom0:       int(f.zoom0[u]),
			Dists:       append([]float64(nil), f.dists[f.distOff[u]:f.distOff[u+1]]...),
			ZoomPsi:     append([]int32(nil), f.psi[f.psiOff[u]:f.psiOff[u+1]]...),
		}
		gLo, gHi := int(f.levOff[u]), int(f.levOff[u+1])
		lab.Trans = make([]distlabel.LevelMap, gHi-gLo)
		for g := gLo; g < gHi; g++ {
			clear(bySpan)
			lm := make(distlabel.LevelMap, f.xkOff[g+1]-f.xkOff[g])
			for k := int(f.xkOff[g]); k < int(f.xkOff[g+1]); k++ {
				span := [2]int32{f.entSpan[2*k], f.entSpan[2*k+1]}
				entries, ok := bySpan[span]
				if !ok {
					entries = make([]distlabel.TransEntry, 0, span[1]-span[0])
					for e := int(span[0]); e < int(span[1]); e++ {
						entries = append(entries, distlabel.TransEntry{Y: f.ents[2*e], Z: f.ents[2*e+1]})
					}
					bySpan[span] = entries
				}
				lm[f.xkeys[k]] = entries
			}
			lab.Trans[g-gLo] = lm
		}
		labels[u] = lab
	}
	return labels
}

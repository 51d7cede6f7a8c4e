package oracle

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

	"rings/internal/distlabel"
)

// FlatSnap is the flat serving representation of a snapshot's labels:
// every label (host distances, zooming pointers, ζ-map triples) packed
// into one contiguous arena with offset-index headers. The
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
	n   int
	buf []byte // the one backing arena (heap slice or mmap window)
	m   *mapping
	// refs counts the creation reference plus active reader pins; only
	// meaningful for mmap-backed arenas. The last release unmaps.
	refs   atomic.Int64
	closed atomic.Bool
	// unmapped flips when the last reference actually munmaps (observed
	// by Mapped; f.m itself stays set so a racing pin still classifies
	// the arena as mmap-backed and fails cleanly).
	unmapped atomic.Bool

	sections []flatSection

	// Views. Per node u: Dists is dists[distOff[u]:distOff[u+1]]
	// and ZoomPsi is psi[psiOff[u]:psiOff[u+1]]. Its translation-map groups
	// — one per level, as many as ψ pointers — are indexed like psi: level
	// i of u is group g = psiOff[u]+i. A key of a map is a host index of
	// u's own label, so group g's key set is a bitmap over [0, len(Dists)):
	// W = ⌈len(Dists)/32⌉ words at keyBits[kbOff[u]+i*W:]. A key names the
	// group's default span (s, e) = grpSpan[2g], grpSpan[2g+1] unless it is
	// one of the group's exception keys xcKeys[xcOff[g]:xcOff[g+1]]
	// (ascending), whose spans sit at xcSpan[2k], xcSpan[2k+1]. A span's
	// Y-sorted (Y, Z) pairs sit interleaved at ents[2s:2e]; each distinct
	// list of a group is stored once, and the default is the list most of
	// its keys name (saturated T-sets make it every key's at lab scale).
	// chain[3g:3g+3] is u's own zoom walk read ahead: the span of the key
	// the walk stands on at level i, and the host it zooms to next (-1
	// where the walk stops).
	distOff []int32
	dists   []float64
	l0      []int32 // per-node Level0Count
	zoom0   []int32
	psiOff  []int32
	psi     []int32
	kbOff   []int32
	keyBits []int32
	grpSpan []int32
	xcOff   []int32
	xcKeys  []int32
	xcSpan  []int32
	chain   []int32
	ents    []int32
	// keys and lists are countKeys() of the finished arena (for the gauges).
	keys, lists int
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
	secKbOff   = "kb_off"
	secKeyBits = "key_bits"
	secGrpSpan = "grp_span"
	secXcOff   = "xc_off"
	secXcKeys  = "xc_keys"
	secXcSpan  = "xc_span"
	secChain   = "chain"
	secEnts    = "ents"
)

// sectionNames lists every arena section.
var sectionNames = []string{
	secDists, secDistOff, secL0, secZoom0, secPsiOff, secPsi, secKbOff,
	secKeyBits, secGrpSpan, secXcOff, secXcKeys, secXcSpan, secChain, secEnts,
}

// retiredSections name the per-key tables of the two layouts before the
// key bitmap: ent_off (every key's list stored separately) and ent_span
// (every key naming its shared list). Their ents sections mean something
// else than today's, so a directory naming either is refused outright
// (ErrOldLayout) instead of being read under the new rules.
var retiredSections = []string{"ent_off", "ent_span"}

// ErrOldLayout rejects a v2 snapshot whose arena predates the key
// bitmap. No reader is kept for those layouts: the file is a cache of a
// deterministic build, so the remedy is to delete it.
var ErrOldLayout = errors.New("oracle: snapshot written in a retired arena layout; delete it to rebuild")

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
// It validates section identity, kind, alignment and bounds — this is
// the entire "decode" of a v2 snapshot payload.
func (f *FlatSnap) bind() error {
	for _, s := range f.sections {
		if slices.Contains(retiredSections, s.Name) {
			return ErrOldLayout
		}
	}
	view := func(s flatSection, kind string, size int64) (unsafe.Pointer, error) {
		if s.Kind != kind {
			return nil, fmt.Errorf("oracle: flat section %s has kind %q, want %q", s.Name, s.Kind, kind)
		}
		if s.Off < 0 || s.Count < 0 || s.Off%size != 0 || s.Off > int64(len(f.buf)) || s.Count > (int64(len(f.buf))-s.Off)/size {
			return nil, fmt.Errorf("oracle: flat section %s out of bounds (off %d count %d of %d bytes)", s.Name, s.Off, s.Count, len(f.buf))
		}
		if s.Count == 0 {
			return nil, nil
		}
		return unsafe.Pointer(&f.buf[s.Off]), nil
	}
	i32 := func(s flatSection) ([]int32, error) {
		p, err := view(s, "i32", 4)
		if p == nil {
			return nil, err
		}
		return unsafe.Slice((*int32)(p), s.Count), nil
	}
	f64 := func(s flatSection) ([]float64, error) {
		p, err := view(s, "f64", 8)
		if p == nil {
			return nil, err
		}
		return unsafe.Slice((*float64)(p), s.Count), nil
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
		case secKbOff:
			f.kbOff, err = i32(s)
		case secKeyBits:
			f.keyBits, err = i32(s)
		case secGrpSpan:
			f.grpSpan, err = i32(s)
		case secXcOff:
			f.xcOff, err = i32(s)
		case secXcKeys:
			f.xcKeys, err = i32(s)
		case secXcSpan:
			f.xcSpan, err = i32(s)
		case secChain:
			f.chain, err = i32(s)
		case secEnts:
			f.ents, err = i32(s)
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

// keyWords is how many bitmap words one group of a label with nd host
// distances takes.
func keyWords(nd int) int { return (nd + 31) >> 5 }

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
	if f.n < 0 || len(f.zoom0) != f.n || len(f.l0) != f.n {
		return fmt.Errorf("oracle: flat label arenas sized for %d nodes, want %d", len(f.zoom0), f.n)
	}
	if err := checkOff(secDistOff, f.distOff, f.n+1, len(f.dists)); err != nil {
		return err
	}
	if err := checkOff(secPsiOff, f.psiOff, f.n+1, len(f.psi)); err != nil {
		return err
	}
	groups := len(f.psi)
	if err := checkOff(secKbOff, f.kbOff, f.n+1, len(f.keyBits)); err != nil {
		return err
	}
	if err := checkOff(secXcOff, f.xcOff, groups+1, len(f.xcKeys)); err != nil {
		return err
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{secGrpSpan, len(f.grpSpan), 2 * groups},
		{secXcSpan, len(f.xcSpan), 2 * len(f.xcKeys)},
		{secChain, len(f.chain), 3 * groups},
	} {
		if c.got != c.want {
			return fmt.Errorf("oracle: flat section %s has %d elements, want %d", c.name, c.got, c.want)
		}
	}
	if len(f.ents)%2 != 0 {
		return fmt.Errorf("oracle: flat ents length %d is odd", len(f.ents))
	}
	// Spans may repeat and need not be monotone, so each is bounded on
	// its own.
	nEnts := int32(len(f.ents) / 2)
	checkSpan := func(name string, i int, start, end int32) error {
		if start < 0 || end < start || end > nEnts {
			return fmt.Errorf("oracle: flat section %s entry %d spans [%d, %d) outside [0, %d]", name, i, start, end, nEnts)
		}
		return nil
	}
	for g := 0; g < groups; g++ {
		if err := checkSpan(secGrpSpan, g, f.grpSpan[2*g], f.grpSpan[2*g+1]); err != nil {
			return err
		}
		if err := checkSpan(secChain, g, f.chain[3*g], f.chain[3*g+1]); err != nil {
			return err
		}
	}
	for k := range f.xcKeys {
		if err := checkSpan(secXcSpan, k, f.xcSpan[2*k], f.xcSpan[2*k+1]); err != nil {
			return err
		}
	}
	for u := 0; u < f.n; u++ {
		nd := int(f.distOff[u+1] - f.distOff[u])
		w := keyWords(nd)
		gLo, gHi := int(f.psiOff[u]), int(f.psiOff[u+1])
		if got, want := int(f.kbOff[u+1]-f.kbOff[u]), (gHi-gLo)*w; got != want {
			return fmt.Errorf("oracle: flat section %s gives node %d %d words, want %d", secKeyBits, u, got, want)
		}
		if tail := nd & 31; tail != 0 {
			for i := 0; i < gHi-gLo; i++ {
				if last := uint32(f.keyBits[int(f.kbOff[u])+(i+1)*w-1]); last>>tail != 0 {
					return fmt.Errorf("oracle: flat section %s sets a key of node %d at or past its %d hosts", secKeyBits, u, nd)
				}
			}
		}
		for g := gLo; g < gHi; g++ {
			if next := f.chain[3*g+2]; next < -1 || int(next) >= nd {
				return fmt.Errorf("oracle: flat section %s zooms node %d to host %d of %d", secChain, u, next, nd)
			}
			prev := int32(-1)
			for _, x := range f.xcKeys[f.xcOff[g]:f.xcOff[g+1]] {
				if x <= prev || int(x) >= nd {
					return fmt.Errorf("oracle: flat section %s key %d of node %d not ascending within [0, %d)", secXcKeys, x, u, nd)
				}
				prev = x
			}
		}
	}
	return nil
}

// groupBits is the key bitmap of node u's level-i group.
func (f *FlatSnap) groupBits(u, i int) []int32 {
	w := keyWords(int(f.distOff[u+1] - f.distOff[u]))
	at := int(f.kbOff[u]) + i*w
	return f.keyBits[at : at+w]
}

// countKeys counts the arena's keys (set bits) and the entry lists it
// stores: per group, the distinct non-empty spans its keys name — the
// default one if some key is no exception, and the exceptions'.
func (f *FlatSnap) countKeys() (keys, lists int) {
	var seen [][2]int32
	for u := 0; u < f.n; u++ {
		for i := 0; i < int(f.psiOff[u+1]-f.psiOff[u]); i++ {
			g := int(f.psiOff[u]) + i
			inGroup := 0
			for _, word := range f.groupBits(u, i) {
				inGroup += bits.OnesCount32(uint32(word))
			}
			keys += inGroup
			xLo, xHi := int(f.xcOff[g]), int(f.xcOff[g+1])
			seen = seen[:0]
			if inGroup > xHi-xLo {
				seen = append(seen, [2]int32{f.grpSpan[2*g], f.grpSpan[2*g+1]})
			}
			for k := xLo; k < xHi; k++ {
				if span := [2]int32{f.xcSpan[2*k], f.xcSpan[2*k+1]}; !slices.Contains(seen, span) {
					seen = append(seen, span)
				}
			}
			for _, span := range seen {
				if span[1] > span[0] {
					lists++
				}
			}
		}
	}
	return keys, lists
}

// listIndex places ζ entry lists in the ents section, each distinct list
// of a group once: a list equal to one the current group already stored
// is that one instead of a second copy. Equality is by content — slice
// identity (the builder's aliased identity keys) is only the shortcut —
// so the arena bytes depend on nothing but what the labels say, whichever
// way their lists happen to be held in memory.
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

// place returns the index of the stored list equal to entries (which
// must not be empty), storing it first if the current group holds none.
func (ix *listIndex) place(entries []distlabel.TransEntry) int32 {
	at := ix.last
	if at < 0 || &ix.lists[at][0] != &entries[0] || len(ix.lists[at]) != len(entries) {
		at = ix.find(entries)
	}
	ix.last = at
	return at
}

// span is stored list at's span of entries.
func (ix *listIndex) span(at int32) (start, end int32) {
	return ix.start[at], ix.start[at] + int32(len(ix.lists[at]))
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

// newFlatFromLabels packs Theorem 3.4 labels into the flat arenas. Each
// group's keys, read in their ascending order, become bits; its lists
// are stored once per content (see listIndex), in key order and
// Y-sorted as they arrive from the builder — the exact fold
// order distlabel.Estimate's harvest/lookup walk uses, so the flat
// answers are bit-identical. A key with an empty list is left out: the
// pointer walk finds nothing under it either, and the wire codec drops it
// the same way. The default span of a group is the list most of its keys
// name (ties to the first in key order); only keys naming another list
// are stored as exceptions.
func newFlatFromLabels(labels []*distlabel.Label) (*FlatSnap, error) {
	n := len(labels)
	// Size pass.
	var nDists, nGroups, nWords int
	for u, lab := range labels {
		if lab == nil {
			return nil, fmt.Errorf("oracle: flat pack: nil label %d", u)
		}
		if len(lab.Trans) != len(lab.ZoomPsi) {
			// Groups are indexed like psi; the builder and wire decoder
			// both emit equal lengths (IMax).
			return nil, fmt.Errorf("oracle: flat pack: label %d has %d trans levels for %d zoom pointers", u, len(lab.Trans), len(lab.ZoomPsi))
		}
		nDists += len(lab.Dists)
		nGroups += len(lab.Trans)
		nWords += len(lab.Trans) * keyWords(len(lab.Dists))
	}
	if c := max(nDists, 3*nGroups, nWords); c > math.MaxInt32 {
		return nil, fmt.Errorf("oracle: flat pack: arena of %d elements exceeds the int32 offset space", c)
	}
	// Placement pass: bitmaps, spans and chains into scratch, because the
	// arena's size is the number of entries and exceptions that survive
	// the sharing.
	ix := listIndex{head: make(map[uint64]int32)}
	keyBits := make([]int32, nWords)
	grpSpan := make([]int32, 2*nGroups)
	chain := make([]int32, 3*nGroups)
	xcOff := make([]int32, nGroups+1)
	var xcKeys, xcSpan, keys, ids, tally []int32
	g, word := 0, 0
	for u, lab := range labels {
		nd := len(lab.Dists)
		w := keyWords(nd)
		own := int32(lab.Zoom0) // the host u's own walk stands on
		for i, lm := range lab.Trans {
			ix.nextGroup()
			group := keyBits[word : word+w]
			first, ownList := int32(len(ix.lists)), int32(-1)
			keys, ids = keys[:0], ids[:0]
			for k, x := range lm.Keys {
				entries := lm.Lists[k]
				if len(entries) == 0 {
					continue
				}
				if x < 0 || int(x) >= nd || (len(keys) > 0 && x <= keys[len(keys)-1]) {
					return nil, fmt.Errorf("oracle: flat pack: label %d level %d has key %d out of order or outside its %d hosts", u, i, x, nd)
				}
				group[x>>5] |= int32(uint32(1) << (x & 31))
				at := ix.place(entries)
				keys, ids = append(keys, x), append(ids, at)
				if x == own {
					ownList = at
				}
			}
			stored := len(ix.lists) - int(first)
			tally = slices.Grow(tally[:0], stored)[:stored]
			clear(tally)
			def := int32(-1)
			for _, at := range ids {
				tally[at-first]++
			}
			for j, c := range tally {
				if def < 0 || c > tally[def] {
					def = int32(j)
				}
			}
			if def >= 0 {
				def += first
				grpSpan[2*g], grpSpan[2*g+1] = ix.span(def)
			}
			for k, at := range ids {
				if at != def {
					s, e := ix.span(at)
					xcKeys = append(xcKeys, keys[k])
					xcSpan = append(xcSpan, s, e)
				}
			}
			xcOff[g+1] = int32(len(xcKeys))
			if ownList >= 0 {
				chain[3*g], chain[3*g+1] = ix.span(ownList)
			}
			// A host past the label's end names no key: the walk would
			// stop one level later having folded nothing more.
			next := lab.Translate(i, int(own), lab.ZoomPsi[i])
			if next >= nd {
				next = -1
			}
			own = int32(next)
			chain[3*g+2] = own
			g++
			word += w
		}
	}
	if c := max(2*ix.ents, 2*len(xcKeys)); c > math.MaxInt32 {
		return nil, fmt.Errorf("oracle: flat pack: arena of %d elements exceeds the int32 offset space", c)
	}

	var lay flatLayout
	lay.add(secDists, "f64", nDists)
	lay.add(secDistOff, "i32", n+1)
	lay.add(secL0, "i32", n)
	lay.add(secZoom0, "i32", n)
	lay.add(secPsiOff, "i32", n+1)
	lay.add(secPsi, "i32", nGroups)
	lay.add(secKbOff, "i32", n+1)
	lay.add(secKeyBits, "i32", nWords)
	lay.add(secGrpSpan, "i32", 2*nGroups)
	lay.add(secXcOff, "i32", nGroups+1)
	lay.add(secXcKeys, "i32", len(xcKeys))
	lay.add(secXcSpan, "i32", len(xcSpan))
	lay.add(secChain, "i32", 3*nGroups)
	lay.add(secEnts, "i32", 2*ix.ents)

	f := &FlatSnap{n: n, buf: alignedBytes(int(lay.off)), sections: lay.sections}
	f.refs.Store(1)
	if err := f.bind(); err != nil {
		return nil, err
	}

	// Fill pass.
	var dPos, pPos, wPos int
	for u, lab := range labels {
		f.distOff[u] = int32(dPos)
		dPos += copy(f.dists[dPos:], lab.Dists)
		f.l0[u] = int32(lab.Level0Count)
		f.zoom0[u] = int32(lab.Zoom0)
		f.psiOff[u] = int32(pPos)
		pPos += copy(f.psi[pPos:], lab.ZoomPsi)
		f.kbOff[u] = int32(wPos)
		wPos += len(lab.Trans) * keyWords(len(lab.Dists))
	}
	f.distOff[n] = int32(dPos)
	f.psiOff[n] = int32(pPos)
	f.kbOff[n] = int32(wPos)
	copy(f.keyBits, keyBits)
	copy(f.grpSpan, grpSpan)
	copy(f.xcOff, xcOff)
	copy(f.xcKeys, xcKeys)
	copy(f.xcSpan, xcSpan)
	copy(f.chain, chain)
	ePos := 0
	for _, l := range ix.lists {
		for _, e := range l {
			f.ents[ePos] = e.Y
			f.ents[ePos+1] = e.Z
			ePos += 2
		}
	}
	f.keys, f.lists = f.countKeys()
	return f, nil
}

// newFlatForSnapshot builds the flat serving arena for a snapshot's
// labels. Both BuildSnapshot and the churn engine's delta commits run
// through this at assembly, so every served snapshot carries flat
// arenas and the persisted v2 format is always available.
func newFlatForSnapshot(s *Snapshot) (*FlatSnap, error) {
	if s.Labels == nil {
		return nil, fmt.Errorf("oracle: snapshot has no labels to flatten")
	}
	return newFlatFromLabels(s.Labels)
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
		lab.Trans = make([]distlabel.LevelMap, len(lab.ZoomPsi))
		for i := range lab.Trans {
			g := int(f.psiOff[u]) + i
			clear(bySpan)
			var lm distlabel.LevelMap
			xc := int(f.xcOff[g])
			for w, word := range f.groupBits(u, i) {
				for rest := uint32(word); rest != 0; rest &= rest - 1 {
					x := int32(w<<5 + bits.TrailingZeros32(rest))
					span := [2]int32{f.grpSpan[2*g], f.grpSpan[2*g+1]}
					if xc < int(f.xcOff[g+1]) && f.xcKeys[xc] == x {
						span = [2]int32{f.xcSpan[2*xc], f.xcSpan[2*xc+1]}
						xc++
					}
					entries, ok := bySpan[span]
					if !ok {
						entries = make([]distlabel.TransEntry, 0, span[1]-span[0])
						for e := int(span[0]); e < int(span[1]); e++ {
							entries = append(entries, distlabel.TransEntry{Y: f.ents[2*e], Z: f.ents[2*e+1]})
						}
						bySpan[span] = entries
					}
					lm.Keys, lm.Lists = append(lm.Keys, x), append(lm.Lists, entries)
				}
			}
			lab.Trans[i] = lm
		}
		labels[u] = lab
	}
	return labels
}

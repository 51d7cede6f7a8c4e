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
	"rings/internal/par"
)

// FlatSnap is the flat serving representation of a snapshot's labels:
// every label (host distances, zooming pointers, ζ-map triples) packed
// into one contiguous arena with offset-index headers. The hot read path
// walks int32/uint32/float64 views over that single allocation — no
// pointer chasing, no map lookups, no per-query allocation — and the
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
	// Y-sorted entries are the words yz[s:e], each Y<<16 | Z (see
	// ArenaWidth); each distinct list of a group is stored once, and the
	// default is the list most of its keys name (saturated T-sets make it
	// every key's at lab scale).
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
	yz      []uint32
	// keys and lists are countKeys() of the finished arena (for the gauges).
	keys, lists int
}

// flatSection locates one typed array inside the arena. The section
// directory travels in the v2 persist header, so a loader rebuilds the
// views straight over the file bytes.
type flatSection struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "f64" | "i32" | "u32"
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
	secYZ      = "yz"
)

// sectionNames lists every arena section.
var sectionNames = []string{
	secDists, secDistOff, secL0, secZoom0, secPsiOff, secPsi, secKbOff,
	secKeyBits, secGrpSpan, secXcOff, secXcKeys, secXcSpan, secChain, secYZ,
}

// retiredSections name a section of each retired layout: ent_off (every
// key's list stored separately) and ent_span (every key naming its shared
// list), the per-key tables before the key bitmap; and ents, the (Y, Z)
// entries as two int32 words each before yz packed them into one. What
// those sections hold means something else than today's, so a directory
// naming any of them is refused outright (ErrOldLayout) instead of being
// read under the new rules.
var retiredSections = []string{"ent_off", "ent_span", "ents"}

// ErrOldLayout rejects a v2 snapshot whose arena is in a retired layout
// (one naming a retiredSections section: an arena written before the key
// bitmap, or before yz). No reader is kept for those layouts: the file is
// a cache of a deterministic build, so the remedy is to delete it.
var ErrOldLayout = errors.New("oracle: snapshot written in a retired arena layout; delete it to rebuild")

// ArenaWidth bounds both halves of a yz word: an entry's virtual index Y
// (below MaxT) and its host index Z (below the label's host count) each
// take 16 bits, the paper's WidthFor(MaxT) and WidthFor(hosts) rounded
// up to a half word. Labels with MaxT or a host count at or past it are
// refused (ErrArenaWidth), never truncated.
const ArenaWidth = 1 << 16

// ErrArenaWidth refuses labels whose entries the arena's 16-bit halves
// cannot hold.
var ErrArenaWidth = errors.New("oracle: labels too wide for the arena (MaxT and every host count must stay below 65,536)")

// CheckArenaWidth refuses a MaxT, host count or capacity (what names it)
// the arena cannot hold.
func CheckArenaWidth(what string, v int) error {
	if v >= ArenaWidth {
		return fmt.Errorf("%w: %s is %d", ErrArenaWidth, what, v)
	}
	return nil
}

// flatLayout accumulates the section directory while sizing the arena:
// float64 sections first (keeping them 8-aligned from a 0-aligned base),
// then the 4-byte sections.
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
	u32 := func(s flatSection) ([]uint32, error) {
		p, err := view(s, "u32", 4)
		if p == nil {
			return nil, err
		}
		return unsafe.Slice((*uint32)(p), s.Count), nil
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
		case secYZ:
			f.yz, err = u32(s)
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
	// Spans may repeat and need not be monotone, so each is bounded on
	// its own.
	nEnts := int32(len(f.yz))
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
		if nd >= ArenaWidth {
			return fmt.Errorf("%w: node %d has %d hosts", ErrArenaWidth, u, nd)
		}
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

// listIndex places one label's ζ entry lists in its yz words, each
// distinct list of a group once: a list equal to one the current group
// already stored is that one instead of a second copy. Equality is by content — slice
// identity (the builder's aliased identity keys) is only the shortcut —
// so the arena bytes depend on nothing but what the labels say, whichever
// way their lists happen to be held in memory.
type listIndex struct {
	lists [][]distlabel.TransEntry // the label's stored lists, in arena order
	start []int32                  // start[i] is lists[i]'s first entry index in the label's yz
	older []int32                  // older[i] is the previous list of the same group and hash, or -1
	head  map[uint64]int32         // content hash -> newest list of the current group
	last  int32                    // the list the previous key of the group resolved to, or -1
	ents  int                      // entries stored so far
}

// reset empties the index for the next label.
func (ix *listIndex) reset() {
	if ix.head == nil {
		ix.head = make(map[uint64]int32)
	}
	ix.lists, ix.start, ix.older, ix.ents = ix.lists[:0], ix.start[:0], ix.older[:0], 0
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

// packedLabel is one label in arena form: its share of every section,
// its spans counted from its own first yz word and its exception offsets
// from its own first exception. Sharing never crosses a label (see
// listIndex), so each label packs on its own — on the worker that filled
// it, as soon as it is filled — and assembleFlat lays them end to end,
// adding each label's bases.
type packedLabel struct {
	dists     []float64 // the label's own Dists (aliased, not copied)
	psi       []int32   // the label's own ZoomPsi (aliased, not copied)
	l0, zoom0 int32
	// Per group: keyWords(len(dists)) bitmap words, 2 grpSpan and 3
	// chain words, and xcEnd, the label's exception keys up to its end.
	keyBits, grpSpan, chain, xcEnd []int32
	xcKeys, xcSpan                 []int32
	yz                             []uint32
}

// labelPacker is one worker's scratch for pack.
type labelPacker struct {
	ix               listIndex
	keys, ids, tally []int32
}

// pack lays label u out in arena form. Each group's keys, read in their
// ascending order, become bits; its lists are stored once per content
// (see listIndex), in key order and Y-sorted as they arrive from the
// builder — the exact fold order distlabel.Estimate's harvest/lookup
// walk uses, so the flat answers are bit-identical. A key with an empty
// list is left out: the pointer walk finds nothing under it either, and
// the wire codec drops it the same way. The default span of a group is
// the list most of its keys name (ties to the first in key order); only
// keys naming another list are stored as exceptions. Each entry is one
// yz word, Y<<16 | Z: a label with ArenaWidth hosts or more, or an entry
// whose Y or Z lies outside [0, ArenaWidth), is refused with
// ErrArenaWidth.
func (pk *labelPacker) pack(u int, lab *distlabel.Label) (packedLabel, error) {
	if lab == nil {
		return packedLabel{}, fmt.Errorf("oracle: flat pack: nil label %d", u)
	}
	if len(lab.Trans) != len(lab.ZoomPsi) {
		// Groups are indexed like psi; the builder and wire decoder both
		// emit equal lengths (IMax).
		return packedLabel{}, fmt.Errorf("oracle: flat pack: label %d has %d trans levels for %d zoom pointers", u, len(lab.Trans), len(lab.ZoomPsi))
	}
	nd, groups := len(lab.Dists), len(lab.Trans)
	if nd >= ArenaWidth {
		return packedLabel{}, fmt.Errorf("%w: label %d has %d hosts", ErrArenaWidth, u, nd)
	}
	w := keyWords(nd)
	p := packedLabel{
		dists: lab.Dists, psi: lab.ZoomPsi,
		l0: int32(lab.Level0Count), zoom0: int32(lab.Zoom0),
		keyBits: make([]int32, groups*w), grpSpan: make([]int32, 2*groups),
		chain: make([]int32, 3*groups), xcEnd: make([]int32, groups),
	}
	ix := &pk.ix
	ix.reset()
	own := int32(lab.Zoom0) // the host u's own walk stands on
	for g, lm := range lab.Trans {
		ix.nextGroup()
		group := p.keyBits[g*w : (g+1)*w]
		first, ownList := int32(len(ix.lists)), int32(-1)
		keys, ids := pk.keys[:0], pk.ids[:0]
		for k, x := range lm.Keys {
			entries := lm.Lists[k]
			if len(entries) == 0 {
				continue
			}
			if x < 0 || int(x) >= nd || (len(keys) > 0 && x <= keys[len(keys)-1]) {
				return packedLabel{}, fmt.Errorf("oracle: flat pack: label %d level %d has key %d out of order or outside its %d hosts", u, g, x, nd)
			}
			group[x>>5] |= int32(uint32(1) << (x & 31))
			at := ix.place(entries)
			keys, ids = append(keys, x), append(ids, at)
			if x == own {
				ownList = at
			}
		}
		pk.keys, pk.ids = keys, ids
		stored := len(ix.lists) - int(first)
		tally := slices.Grow(pk.tally[:0], stored)[:stored]
		pk.tally = tally
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
			p.grpSpan[2*g], p.grpSpan[2*g+1] = ix.span(def)
		}
		for k, at := range ids {
			if at != def {
				s, e := ix.span(at)
				p.xcKeys = append(p.xcKeys, keys[k])
				p.xcSpan = append(p.xcSpan, s, e)
			}
		}
		p.xcEnd[g] = int32(len(p.xcKeys))
		if ownList >= 0 {
			p.chain[3*g], p.chain[3*g+1] = ix.span(ownList)
		}
		// A host past the label's end names no key: the walk would stop
		// one level later having folded nothing more.
		next := lab.Translate(g, int(own), lab.ZoomPsi[g])
		if next >= nd {
			next = -1
		}
		own = int32(next)
		p.chain[3*g+2] = own
	}
	p.yz = make([]uint32, 0, ix.ents)
	for _, l := range ix.lists {
		for _, e := range l {
			if uint32(e.Y) >= ArenaWidth || uint32(e.Z) >= ArenaWidth {
				return packedLabel{}, fmt.Errorf("%w: entry (Y %d, Z %d)", ErrArenaWidth, e.Y, e.Z)
			}
			p.yz = append(p.yz, uint32(e.Y)<<16|uint32(e.Z))
		}
	}
	clear(ix.lists) // the scratch must not keep the label's lists alive
	return p, nil
}

// assembleFlat lays packed labels end to end into one arena. A span
// (start, end) with start < end is moved by the label's first yz word;
// an empty one is a group or chain with no list and stays (0, 0).
func assembleFlat(packs []packedLabel) (*FlatSnap, error) {
	n := len(packs)
	var nDists, nGroups, nWords, nXc, nEnts int
	for i := range packs {
		p := &packs[i]
		nDists += len(p.dists)
		nGroups += len(p.psi)
		nWords += len(p.keyBits)
		nXc += len(p.xcKeys)
		nEnts += len(p.yz)
	}
	if c := max(nDists, 3*nGroups, nWords, 2*nXc, nEnts); c > math.MaxInt32 {
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
	lay.add(secXcKeys, "i32", nXc)
	lay.add(secXcSpan, "i32", 2*nXc)
	lay.add(secChain, "i32", 3*nGroups)
	lay.add(secYZ, "u32", nEnts)

	f := &FlatSnap{n: n, buf: alignedBytes(int(lay.off)), sections: lay.sections}
	f.refs.Store(1)
	if err := f.bind(); err != nil {
		return nil, err
	}
	var dPos, gPos, wPos, xPos, ePos int32
	moved := func(s, e int32) (int32, int32) {
		if s < e {
			return s + ePos, e + ePos
		}
		return s, e
	}
	for u := range packs {
		p := &packs[u]
		f.distOff[u], f.psiOff[u], f.kbOff[u] = dPos, gPos, wPos
		f.l0[u], f.zoom0[u] = p.l0, p.zoom0
		dPos += int32(copy(f.dists[dPos:], p.dists))
		wPos += int32(copy(f.keyBits[wPos:], p.keyBits))
		copy(f.psi[gPos:], p.psi)
		for g := range p.psi {
			at := int(gPos) + g
			f.grpSpan[2*at], f.grpSpan[2*at+1] = moved(p.grpSpan[2*g], p.grpSpan[2*g+1])
			f.chain[3*at], f.chain[3*at+1] = moved(p.chain[3*g], p.chain[3*g+1])
			f.chain[3*at+2] = p.chain[3*g+2]
			f.xcOff[at+1] = xPos + p.xcEnd[g]
		}
		copy(f.xcKeys[xPos:], p.xcKeys)
		for k := range p.xcKeys {
			at := int(xPos) + k
			f.xcSpan[2*at], f.xcSpan[2*at+1] = moved(p.xcSpan[2*k], p.xcSpan[2*k+1])
		}
		copy(f.yz[ePos:], p.yz)
		gPos += int32(len(p.psi))
		xPos += int32(len(p.xcKeys))
		ePos += int32(len(p.yz))
	}
	f.distOff[n], f.psiOff[n], f.kbOff[n] = dPos, gPos, wPos
	f.keys, f.lists = f.countKeys()
	return f, nil
}

// newFlatFromLabels packs Theorem 3.4 labels into the flat arenas: each
// label on its own, in parallel across workers (0 = GOMAXPROCS), then
// assembleFlat. The first error in node order is returned.
func newFlatFromLabels(labels []*distlabel.Label, workers int) (*FlatSnap, error) {
	n := len(labels)
	packs := make([]packedLabel, n)
	packers := make([]labelPacker, par.Workers(workers, n))
	errs := make([]error, n)
	par.ForWorker(workers, n, func(w, u int) {
		packs[u], errs[u] = packers[w].pack(u, labels[u])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return assembleFlat(packs)
}

// newFlatForSnapshot builds the flat serving arena for a snapshot's
// labels. BuildSnapshot packs each label as it is filled instead; the
// churn engine's delta commits run through this at assembly, so every
// served snapshot carries flat arenas and the persisted v2 format is
// always available.
func newFlatForSnapshot(s *Snapshot) (*FlatSnap, error) {
	if s.Labels == nil {
		return nil, fmt.Errorf("oracle: snapshot has no labels to flatten")
	}
	if err := CheckArenaWidth("MaxT", s.LabelMeta.MaxT); err != nil {
		return nil, err
	}
	return newFlatFromLabels(s.Labels, s.Config.Workers)
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
							w := f.yz[e]
							entries = append(entries, distlabel.TransEntry{Y: int32(w >> 16), Z: int32(w & 0xFFFF)})
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

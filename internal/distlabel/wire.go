package distlabel

import (
	"cmp"
	"fmt"
	"slices"

	"rings/internal/bitio"
)

// Wire is the serialization context for shipping labels between
// processes: the scheme-wide constants a decoder needs (field widths and
// the distance codec). Labels encoded under one Wire can be decoded and
// queried anywhere — the defining point of a distance labeling scheme.
//
// Distances travel through the mantissa/exponent codec, which rounds up
// by at most a (1+2^-mantissa) factor. Estimates from decoded labels
// therefore keep the (1+δ)-approximate upper bound D+ (slightly
// loosened), but the lower bound D− degrades — exactly the paper's
// footnote 11: "the difference x′ − y′ is not necessarily a good
// approximation for x − y, so we cannot use the lower bound D−."
type Wire struct {
	// IMax is the number of zoom/translation levels.
	IMax int
	// MaxT sizes the virtual-pointer field.
	MaxT int
	// Level0Count is the shared host-enumeration prefix length.
	Level0Count int
	// Codec encodes distances.
	Codec bitio.DistCodec
}

// wireHostW is the host-count framing field width (labels of one scheme
// can have different host-enumeration sizes, so each label carries its
// own count).
const wireHostW = 16

// Wire returns the serialization context of this scheme.
func (s *Scheme) Wire() (Wire, error) {
	idx := s.Cons.Idx
	codec, err := bitio.NewDistCodec(idx.MinDistance(), idx.Diameter(), s.Delta/6)
	if err != nil {
		return Wire{}, err
	}
	level0 := 0
	if len(s.labels) > 0 {
		level0 = s.labels[0].Level0Count
	}
	return Wire{IMax: s.Cons.IMax, MaxT: s.MaxT, Level0Count: level0, Codec: codec}, nil
}

// Encode serializes a label. Relative to Scheme.LabelBits (the paper's
// accounting), the wire form adds the 16-bit host-count frame and one
// zero-flag bit per distance, and saves the codec bits of exact-zero
// self slots.
func (wr Wire) Encode(lab *Label) (buf []byte, bits int, err error) {
	hostSize := len(lab.Dists)
	if hostSize >= 1<<wireHostW {
		return nil, 0, fmt.Errorf("distlabel: label too large to frame (%d hosts)", hostSize)
	}
	hostW := bitio.WidthFor(hostSize)
	psiW := bitio.WidthFor(wr.MaxT)
	var w bitio.Writer
	if err := w.WriteBits(uint64(hostSize), wireHostW); err != nil {
		return nil, 0, err
	}
	for _, d := range lab.Dists {
		// One flag bit per distance marks the exact-zero self slot; the
		// codec cannot carry zero and rounding it up to the minimum
		// distance would add absolute error to every estimate through
		// that slot.
		if err := w.WriteBool(d == 0); err != nil {
			return nil, 0, err
		}
		if d == 0 {
			continue
		}
		if err := wr.Codec.Encode(&w, d); err != nil {
			return nil, 0, err
		}
	}
	if err := w.WriteBits(uint64(lab.Zoom0), hostW); err != nil {
		return nil, 0, err
	}
	for _, psi := range lab.ZoomPsi {
		if err := w.WriteBits(uint64(psi), psiW); err != nil {
			return nil, 0, err
		}
	}
	for _, lm := range lab.Trans {
		triples := 0
		for _, entries := range lm.Lists {
			triples += len(entries)
		}
		if err := w.WriteBits(uint64(triples), 32); err != nil {
			return nil, 0, err
		}
		// Canonical order: ascending x (the key order), then the Y-sorted
		// entry order.
		for k, entries := range lm.Lists {
			x := lm.Keys[k]
			for _, e := range entries {
				if err := w.WriteBits(uint64(x), hostW); err != nil {
					return nil, 0, err
				}
				if err := w.WriteBits(uint64(e.Y), psiW); err != nil {
					return nil, 0, err
				}
				if err := w.WriteBits(uint64(e.Z), hostW); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	return w.Bytes(), w.Len(), nil
}

// Decode reconstructs a label from its wire form. The decoded label
// answers Estimate queries; see the Wire doc about D−. Every index is
// checked against what it indexes: a host index (Zoom0, x, z) against
// the label's host count, a virtual index (ZoomPsi, Y) against MaxT,
// Zoom0 also against the shared prefix, and a level's triple count
// against the keys and bits it could fill.
func (wr Wire) Decode(buf []byte, bits int) (*Label, error) {
	if bits < 0 || bits > 8*len(buf) {
		return nil, fmt.Errorf("distlabel: %d bits in a %d-byte buffer", bits, len(buf))
	}
	r := bitio.NewReader(buf, bits)
	hostSizeRaw, err := r.ReadBits(wireHostW)
	if err != nil {
		return nil, err
	}
	hostSize := int(hostSizeRaw)
	hostW := bitio.WidthFor(hostSize)
	psiW := bitio.WidthFor(wr.MaxT)
	lab := &Label{
		Level0Count: wr.Level0Count,
		Dists:       make([]float64, hostSize),
		ZoomPsi:     make([]int32, wr.IMax),
		Trans:       make([]LevelMap, wr.IMax),
	}
	for i := range lab.Dists {
		zero, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if zero {
			continue
		}
		d, err := wr.Codec.Decode(r)
		if err != nil {
			return nil, err
		}
		lab.Dists[i] = d
	}
	z0, err := r.ReadBits(hostW)
	if err != nil {
		return nil, err
	}
	if z0 >= uint64(min(hostSize, wr.Level0Count)) {
		return nil, fmt.Errorf("distlabel: zoom root %d outside the %d-host label's %d-host shared prefix", z0, hostSize, wr.Level0Count)
	}
	lab.Zoom0 = int(z0)
	for i := range lab.ZoomPsi {
		psi, err := r.ReadBits(psiW)
		if err != nil {
			return nil, err
		}
		if psi >= uint64(wr.MaxT) {
			return nil, fmt.Errorf("distlabel: zoom pointer %d is %d, MaxT is %d", i, psi, wr.MaxT)
		}
		lab.ZoomPsi[i] = int32(psi)
	}
	type triple struct {
		x int32
		e TransEntry
	}
	var triples []triple
	tripleW := uint64(2*hostW + psiW)
	for level := 0; level < wr.IMax; level++ {
		count, err := r.ReadBits(32)
		if err != nil {
			return nil, err
		}
		// A key holds at most one entry per virtual index.
		if count > uint64(hostSize)*uint64(wr.MaxT) || count*tripleW > uint64(r.Remaining()) {
			return nil, fmt.Errorf("distlabel: level %d claims %d triples; %d hosts, MaxT %d and %d bits left hold fewer", level, count, hostSize, wr.MaxT, r.Remaining())
		}
		triples = triples[:0]
		for k := uint64(0); k < count; k++ {
			x, err := r.ReadBits(hostW)
			if err != nil {
				return nil, err
			}
			y, err := r.ReadBits(psiW)
			if err != nil {
				return nil, err
			}
			z, err := r.ReadBits(hostW)
			if err != nil {
				return nil, err
			}
			if x >= uint64(hostSize) || z >= uint64(hostSize) || y >= uint64(wr.MaxT) {
				return nil, fmt.Errorf("distlabel: level %d triple (%d, %d, %d) outside %d hosts, MaxT %d", level, x, y, z, hostSize, wr.MaxT)
			}
			triples = append(triples, triple{int32(x), TransEntry{Y: int32(y), Z: int32(z)}})
		}
		// Group by key, each list Y-sorted as lookup needs; stable, so
		// entries equal in (x, Y) keep their wire order.
		slices.SortStableFunc(triples, func(a, b triple) int {
			return cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.e.Y, b.e.Y))
		})
		entries := make([]TransEntry, len(triples))
		var lm LevelMap
		for start := 0; start < len(triples); {
			end := start
			for ; end < len(triples) && triples[end].x == triples[start].x; end++ {
				entries[end] = triples[end].e
			}
			lm.Keys = append(lm.Keys, triples[start].x)
			lm.Lists = append(lm.Lists, entries[start:end:end])
			start = end
		}
		lab.Trans[level] = lm
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("distlabel: %d stray bits after label", r.Remaining())
	}
	return lab, nil
}

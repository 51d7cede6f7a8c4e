package routing

import (
	"fmt"

	"rings/internal/bitio"
	"rings/internal/core"
	"rings/internal/graph"
	"rings/internal/metric"
)

// FullTable is the trivial stretch-1 scheme of the paper's introduction:
// every node stores the full next-hop column of the all-pairs
// shortest-path computation, costing Ω(n log D_out) bits per node. It is
// the baseline every compact scheme is measured against.
type FullTable struct {
	g          *graph.Graph
	apsp       *graph.APSP
	idW, doutW int
}

var _ Scheme = (*FullTable)(nil)

// NewFullTable builds the trivial scheme.
func NewFullTable(g *graph.Graph) (*FullTable, error) {
	apsp, err := graph.AllPairs(g)
	if err != nil {
		return nil, fmt.Errorf("fulltable: %w", err)
	}
	return &FullTable{
		g:     g,
		apsp:  apsp,
		idW:   bitio.WidthFor(g.N()),
		doutW: bitio.WidthFor(g.MaxOutDegree()),
	}, nil
}

// Name implements Scheme.
func (s *FullTable) Name() string { return "full-table" }

// Graph implements Scheme.
func (s *FullTable) Graph() *graph.Graph { return s.g }

type idHeader struct {
	target int
	bits   int
}

func (h *idHeader) Bits() int { return h.bits }

// InitHeader implements Scheme: the header is just the target's id.
func (s *FullTable) InitHeader(source, target int) (Header, error) {
	if target < 0 || target >= s.g.N() {
		return nil, fmt.Errorf("fulltable: invalid target %d", target)
	}
	return &idHeader{target: target, bits: s.idW}, nil
}

// NextHop implements Scheme.
func (s *FullTable) NextHop(u int, hdr Header) (int, bool, error) {
	h, ok := hdr.(*idHeader)
	if !ok {
		return 0, false, fmt.Errorf("fulltable: foreign header %T", hdr)
	}
	if u == h.target {
		return 0, true, nil
	}
	e := s.apsp.FirstHop(u, h.target)
	if e < 0 {
		return 0, false, fmt.Errorf("fulltable: no hop from %d to %d", u, h.target)
	}
	return e, false, nil
}

// TableBits implements Scheme: one next-hop entry per destination.
func (s *FullTable) TableBits(u int) (int, error) {
	return s.g.N() * s.doutW, nil
}

// LabelBits implements Scheme.
func (s *FullTable) LabelBits(u int) (int, error) { return s.idW, nil }

// Thm21Global is the Talwar-style comparator for Table 1: the same
// rings-of-neighbors zooming as Theorem 2.1, but with zoom sequences
// written as global ceil(log n)-bit node identifiers instead of local
// host-enumeration indices — so it needs no translation tables, and its
// labels and headers pay the Θ(log n / log K) factor the host-enumeration
// machinery (Figure 2) exists to remove. It decodes by looking the ids up
// in the rings, so unlike Thm21 it keeps them.
type Thm21Global struct {
	inner *Thm21
	rings *core.Collection
	// labels[t][j] is the global id of f_tj.
	labels [][]int32
}

var _ Scheme = (*Thm21Global)(nil)

// NewThm21Global builds the global-id comparator over a weighted graph.
func NewThm21Global(g *graph.Graph, delta float64) (*Thm21Global, error) {
	inner, b, err := newThm21(g, delta)
	if err != nil {
		return nil, err
	}
	return newGlobalFrom(inner, b), nil
}

// NewThm21GlobalMetric builds the overlay variant on a metric.
func NewThm21GlobalMetric(idx metric.BallIndex, delta float64) (*Thm21Global, error) {
	inner, b, err := newThm21Metric(idx, delta)
	if err != nil {
		return nil, err
	}
	return newGlobalFrom(inner, b), nil
}

func newGlobalFrom(inner *Thm21, b *thm21Build) *Thm21Global {
	n := len(b.rings.ByNode)
	s := &Thm21Global{inner: inner, rings: b.rings, labels: make([][]int32, n)}
	for t := 0; t < n; t++ {
		lab := make([]int32, inner.levels)
		for j := range lab {
			f, _ := b.hier.NearestInLevel(j, t)
			lab[j] = int32(f)
		}
		s.labels[t] = lab
	}
	return s
}

// Name implements Scheme.
func (s *Thm21Global) Name() string { return "talwar-style/global-ids" }

// Graph implements Scheme.
func (s *Thm21Global) Graph() *graph.Graph { return s.inner.g }

type globalHeader struct {
	target int
	label  []int32
	j      int
	scheme *Thm21Global
}

// Bits implements Header: one global id per level plus target id + level.
func (h *globalHeader) Bits() int {
	return h.scheme.inner.idW*(1+len(h.label)) + h.scheme.inner.jW
}

// InitHeader implements Scheme.
func (s *Thm21Global) InitHeader(source, target int) (Header, error) {
	if target < 0 || target >= len(s.labels) {
		return nil, fmt.Errorf("thm21global: invalid target %d", target)
	}
	return &globalHeader{target: target, label: s.labels[target], j: -1, scheme: s}, nil
}

// NextHop implements Scheme: Theorem 2.1's algorithm with trivial
// decoding — j_ut is the deepest level whose zoom element is in u's ring.
func (s *Thm21Global) NextHop(u int, hdr Header) (int, bool, error) {
	h, ok := hdr.(*globalHeader)
	if !ok {
		return 0, false, fmt.Errorf("thm21global: foreign header %T", hdr)
	}
	if u == h.target {
		return 0, true, nil
	}
	in := s.inner
	// Decode trivially: walk levels while f_tj ∈ Y_uj.
	var slots []int32
	for j := 0; j < len(h.label); j++ {
		slot, ok := s.rings.Ring(u, j).IndexOf(int(h.label[j]))
		if !ok {
			break
		}
		slots = append(slots, int32(slot))
	}
	jut := len(slots) - 1
	if jut < 0 {
		return 0, false, fmt.Errorf("thm21global: node %d cannot see the target's level-0 zoom element", u)
	}
	pick := func() (int, bool, error) {
		h.j = jut
		if int(h.label[jut]) == u {
			return 0, false, fmt.Errorf("thm21global: node %d is its own deepest target", u)
		}
		e := in.hop(u, jut, slots[jut])
		if e < 0 {
			return 0, false, fmt.Errorf("thm21global: missing hop at %d level %d", u, jut)
		}
		return int(e), false, nil
	}
	if h.j < 0 {
		return pick()
	}
	if h.j > jut {
		return 0, false, fmt.Errorf("thm21global: invariant violated at %d: level %d > %d", u, h.j, jut)
	}
	if int(h.label[h.j]) == u {
		return pick()
	}
	e := in.hop(u, h.j, slots[h.j])
	if e < 0 {
		return 0, false, fmt.Errorf("thm21global: missing hop at %d level %d", u, h.j)
	}
	return int(e), false, nil
}

// TableBits implements Scheme: ring member ids + first hops (no ζ tables).
func (s *Thm21Global) TableBits(u int) (int, error) {
	in := s.inner
	bits := in.idW
	for j := 0; j < in.levels; j++ {
		bits += in.ringSize(u, j) * (in.idW + in.doutW)
	}
	return bits, nil
}

// LabelBits implements Scheme: one global id per level.
func (s *Thm21Global) LabelBits(u int) (int, error) {
	return s.inner.idW * (1 + len(s.labels[u])), nil
}

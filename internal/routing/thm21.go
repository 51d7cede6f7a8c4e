package routing

import (
	"errors"
	"fmt"
	"math"

	"rings/internal/bitio"
	"rings/internal/core"
	"rings/internal/graph"
	"rings/internal/metric"
	"rings/internal/nets"
	"rings/internal/par"
)

// Thm21 is the paper's Theorem 2.1 routing scheme: rings of neighbors
// Y_uj = B_u(c·s_j) ∩ G_j over nets G_j at scales s_j = ∆/2^j, zooming
// sequences f_t0, f_t1, ... encoded through host enumerations, translation
// functions ζ_uj, and first-hop pointers.
//
// Two implementation notes (DESIGN.md §4):
//
//  1. The ball factor c is derived from the target stretch: a new
//     intermediate target improves the distance to t by ρ = 2/(c−1) per
//     switch, giving stretch <= 1 + 2ρ/(1−ρ); we pick c so that equals
//     1+delta. (The paper fixes c = 4/δ, which satisfies the same
//     inequalities.)
//  2. Zoom pointers n_tj index the small zoom ring B_f(3·s_j) ∩ G_j of
//     f = f_(t,j−1) instead of f's full Y-ring: consecutive zoom elements
//     are at most s_(j−1)+s_j = 3·s_j apart, so the small ring always
//     contains them, and the translation tables shrink from K×K to
//     K×|zoom ring| without changing the algorithm.
//
// The router is one flat arena (DESIGN.md §10), filled in place by the
// per-node build loop. With L levels, ring slots numbered node by node
// and, within a node, level by level in ascending node id:
//
//   - ring[u·L+j] .. ring[u·L+j+1] is the span of Y_uj's slots;
//   - hops[k] is the out-edge index toward slot k's node (-1 when it is
//     u itself), so the spans of ring double as ring sizes;
//   - row[k] .. row[k+1] is slot k's ζ row in cells (empty at level L−1):
//     cell b of the row of Y_uj's slot a is ζ_uj(a, b), an index into
//     Y_(u,j+1), or nullCell;
//   - self[u·L+j] is u's slot in Y_uj (or -1), and labels[t·L+j] is the
//     zoom pointer n_tj.
//
// The rings, zoom rings and net hierarchy the arena is filled from (a
// thm21Build) are not kept: only the widths and counts the bit accounting
// reads are.
type Thm21 struct {
	name   string
	g      *graph.Graph
	delta  float64
	levels int

	ring   []uint32
	hops   []int32
	row    []uint32
	cells  []uint16
	self   []int32
	labels []int32

	levelWidth []int // bits per zoom pointer, per level
	maxRing    int   // the realized K
	idW, jW    int
	doutW      int
}

// nullCell is an absent ζ translation. A ζ value indexes the next ring,
// so a next ring of nullCell slots or more cannot be stored.
const nullCell = 0xFFFF

// ErrRouterWidth refuses a router the arena cannot hold: a ring of
// nullCell (65,535) slots or more behind a ζ table, or more ring slots or
// ζ cells than a uint32 offset reaches. Nothing is truncated.
var ErrRouterWidth = errors.New("thm21: router too wide for the arena's 16-bit ζ cells or 32-bit offsets")

var _ Scheme = (*Thm21)(nil)

// LinkOracle resolves "the first edge of a shortest path from u to v" —
// APSP first hops for routing on graphs, direct overlay edges for routing
// on metrics.
type LinkOracle func(u, v int) (edge int, err error)

// NewThm21 builds the Theorem 2.1 scheme for a weighted graph: rings live
// on the graph's shortest-path metric and legs follow APSP first hops.
func NewThm21(g *graph.Graph, delta float64) (*Thm21, error) {
	s, _, err := newThm21(g, delta)
	return s, err
}

func newThm21(g *graph.Graph, delta float64) (*Thm21, *thm21Build, error) {
	apsp, err := graph.AllPairs(g)
	if err != nil {
		return nil, nil, fmt.Errorf("thm21: %w", err)
	}
	oracle := func(u, v int) (int, error) {
		e := apsp.FirstHop(u, v)
		if e < 0 {
			return 0, fmt.Errorf("thm21: no first hop %d->%d", u, v)
		}
		return e, nil
	}
	b, err := buildRings(metric.NewIndex(apsp.Metric()), delta)
	if err != nil {
		return nil, nil, err
	}
	s, err := b.finish("thm2.1/graph", g, delta, oracle)
	return s, b, err
}

// NewThm21Metric builds the Section 4.1 variant: the scheme constructs its
// own overlay (one direct link per ring neighbor) on the given metric, so
// the out-degree of the overlay is part of the measured cost (Table 2).
// The router keeps neither idx nor anything built from it but the overlay.
func NewThm21Metric(idx metric.BallIndex, delta float64) (*Thm21, error) {
	s, _, err := newThm21Metric(idx, delta)
	return s, err
}

func newThm21Metric(idx metric.BallIndex, delta float64) (*Thm21, *thm21Build, error) {
	b, err := buildRings(idx, delta)
	if err != nil {
		return nil, nil, err
	}
	neighbors := make([][]int, idx.N())
	par.For(0, idx.N(), func(u int) {
		neighbors[u] = b.rings.ByNode[u].Neighbors()
	})
	overlay, err := graph.OverlayFromNeighbors(idx, neighbors)
	if err != nil {
		return nil, nil, err
	}
	oracle := func(u, v int) (int, error) {
		e := overlay.SearchEdge(u, v)
		if e < 0 {
			return 0, fmt.Errorf("thm21: overlay misses link %d->%d", u, v)
		}
		return e, nil
	}
	s, err := b.finish("thm2.1/metric", overlay, delta, oracle)
	return s, b, err
}

// thm21Build is what a router is filled from: the net hierarchy, the
// rings of neighbors and the zoom rings. The constructors drop it when
// they return, and with it the index the hierarchy reads; only
// Thm21Global, an experiment's comparator, keeps one.
type thm21Build struct {
	hier  *nets.Hierarchy
	rings *core.Collection
	// zoom[j][f] is B_f(3·s_j) ∩ G_j for f ∈ G_(j−1) (nil for
	// non-members); zoom[0] is the shared level-0 ring.
	zoom [][]core.Enum
}

// ballFactor derives c from the target stretch 1+delta: ρ = delta/(2+delta)
// per-switch improvement needs c = 1 + 2/ρ; correctness separately needs
// c >= 3 (Claim 2.4(b)'s in-flight invariant needs (c+1)·s_j <= (c−1)·s_i
// for i < j, i.e. c >= 3).
func ballFactor(delta float64) float64 {
	rho := delta / (2 + delta)
	c := 1 + 2/rho
	return math.Max(c, 3)
}

func buildRings(idx metric.BallIndex, delta float64) (*thm21Build, error) {
	if delta <= 0 || delta > 1 {
		return nil, fmt.Errorf("thm21: delta = %v, want (0, 1]", delta)
	}
	h, err := nets.NewHierarchy(idx, nets.RoutingScales(idx))
	if err != nil {
		return nil, err
	}
	c := ballFactor(delta)
	radii := make([]float64, h.NumLevels())
	for j := range radii {
		radii[j] = c * h.Scale(j)
	}
	rings, err := core.BuildNetRings(idx, h, radii)
	if err != nil {
		return nil, err
	}
	return &thm21Build{hier: h, rings: rings}, nil
}

// finish builds the zoom rings and labels, sizes the arena and fills it
// node by node over the worker pool.
func (b *thm21Build) finish(name string, g *graph.Graph, delta float64, oracle LinkOracle) (*Thm21, error) {
	h, rings := b.hier, b.rings
	n, levels := len(rings.ByNode), h.NumLevels()
	s := &Thm21{name: name, g: g, delta: delta, levels: levels}

	// Zoom targets f_tj: nearest net point per level.
	zoom := make([]int, n*levels)
	for t := 0; t < n; t++ {
		for j := 0; j < levels; j++ {
			zoom[t*levels+j], _ = h.NearestInLevel(j, t)
		}
	}

	// Zoom rings: level 0 is the shared full ring; level j >= 1 is
	// B_f(3·s_j) ∩ G_j for every f ∈ G_(j−1).
	b.zoom = make([][]core.Enum, levels)
	b.zoom[0] = []core.Enum{rings.Ring(0, 0)} // shared by construction
	for j := 1; j < levels; j++ {
		ringsJ := make([]core.Enum, n)
		for _, f := range h.Level(j - 1) {
			ringsJ[f] = core.NewEnum(h.InBall(j, f, 3*h.Scale(j)))
		}
		b.zoom[j] = ringsJ
	}

	// Labels: n_t0 indexes the shared ring; n_tj indexes the zoom ring of
	// f_(t,j−1).
	s.labels = make([]int32, n*levels)
	for t := 0; t < n; t++ {
		lab, ft := s.labels[t*levels:(t+1)*levels], zoom[t*levels:(t+1)*levels]
		i0, ok := b.zoom[0][0].IndexOf(ft[0])
		if !ok {
			return nil, fmt.Errorf("thm21: f_%d,0 missing from shared ring", t)
		}
		lab[0] = int32(i0)
		for j := 1; j < levels; j++ {
			iz, ok := b.zoom[j][ft[j-1]].IndexOf(ft[j])
			if !ok {
				return nil, fmt.Errorf("thm21: f_(%d,%d) not in zoom ring of f_(%d,%d)", t, j, t, j-1)
			}
			lab[j] = int32(iz)
		}
	}

	var err error
	s.ring, s.row, err = layout(n, levels,
		func(u, j int) int { return rings.Ring(u, j).Size() },
		func(u, j, a int) int { return b.zoom[j+1][rings.Ring(u, j).Node(a)].Size() })
	if err != nil {
		return nil, err
	}
	s.hops = make([]int32, len(s.row)-1)
	s.cells = make([]uint16, s.row[len(s.row)-1])
	s.self = make([]int32, n*levels)

	// First hops, self slots and ζ rows: iteration u writes only node
	// u's spans, so the loop runs over the worker pool.
	errs := make([]error, par.Workers(0, n))
	par.ForWorker(0, n, func(w, u int) {
		if errs[w] == nil {
			errs[w] = s.fillNode(u, b, oracle)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Bit widths.
	s.levelWidth = make([]int, levels)
	s.levelWidth[0] = bitio.WidthFor(b.zoom[0][0].Size())
	for j := 1; j < levels; j++ {
		max := 0
		for _, f := range h.Level(j - 1) {
			if sz := b.zoom[j][f].Size(); sz > max {
				max = sz
			}
		}
		s.levelWidth[j] = bitio.WidthFor(max)
	}
	s.maxRing = rings.MaxRingSize()
	s.idW = bitio.WidthFor(n)
	s.jW = bitio.WidthFor(levels + 1)
	s.doutW = bitio.WidthFor(g.MaxOutDegree())
	return s, nil
}

// layout sizes the arena of n nodes over L levels: ring[u·L+j] is where
// Y_uj's slots start and row[k] where slot k's ζ row starts. size(u, j)
// is |Y_uj|, and width(u, j, a), asked for j < L−1 only, is the length of
// the ζ row of Y_uj's slot a. A next ring of nullCell slots or more, or
// an offset past uint32, is ErrRouterWidth.
func layout(n, levels int, size func(u, j int) int, width func(u, j, a int) int) (ring, row []uint32, err error) {
	ring = make([]uint32, n*levels+1)
	var slots uint64
	for u := 0; u < n; u++ {
		for j := 0; j < levels; j++ {
			if j+1 < levels {
				if next := size(u, j+1); next >= nullCell {
					return nil, nil, fmt.Errorf("%w: ring (%d, %d) has %d slots, a ζ cell indexes at most %d", ErrRouterWidth, u, j+1, next, nullCell-1)
				}
			}
			if slots += uint64(size(u, j)); slots > math.MaxUint32 {
				return nil, nil, fmt.Errorf("%w: %d ring slots", ErrRouterWidth, slots)
			}
			ring[u*levels+j+1] = uint32(slots)
		}
	}
	row = make([]uint32, slots+1)
	var cells uint64
	k := 0
	for u := 0; u < n; u++ {
		for j := 0; j < levels; j++ {
			for a, end := 0, int(ring[u*levels+j+1]-ring[u*levels+j]); a < end; a++ {
				if j+1 < levels {
					if cells += uint64(width(u, j, a)); cells > math.MaxUint32 {
						return nil, nil, fmt.Errorf("%w: %d ζ cells", ErrRouterWidth, cells)
					}
				}
				k++
				row[k] = uint32(cells)
			}
		}
	}
	return ring, row, nil
}

// fillNode writes node u's first hops, self slots and ζ rows into their
// spans of the arena. Every ring and zoom ring enumerates its nodes in
// ascending id order, so a ζ row is one merge walk of f's zoom ring
// against u's next ring.
func (s *Thm21) fillNode(u int, b *thm21Build, oracle LinkOracle) error {
	levels := s.levels
	for j := 0; j < levels; j++ {
		nodes := b.rings.Ring(u, j).Nodes()
		base := int(s.ring[u*levels+j])
		hops := s.hops[base : base+len(nodes)]
		s.self[u*levels+j] = -1
		for a, v := range nodes {
			if v == u {
				hops[a] = -1
				s.self[u*levels+j] = int32(a)
				continue
			}
			e, err := oracle(u, v)
			if err != nil {
				return err
			}
			hops[a] = int32(e)
		}
		if j+1 == levels {
			continue
		}
		next := b.rings.Ring(u, j+1).Nodes()
		for a, f := range nodes {
			cells := s.cells[s.row[base+a]:s.row[base+a+1]]
			m := 0
			for c, w := range b.zoom[j+1][f].Nodes() {
				for m < len(next) && next[m] < w {
					m++
				}
				if m < len(next) && next[m] == w {
					cells[c] = uint16(m)
				} else {
					cells[c] = nullCell
				}
			}
		}
	}
	return nil
}

// Name implements Scheme.
func (s *Thm21) Name() string { return s.name }

// Graph implements Scheme.
func (s *Thm21) Graph() *graph.Graph { return s.g }

// Delta reports the target stretch slack.
func (s *Thm21) Delta() float64 { return s.delta }

// thm21Header carries the target's routing label, the target id (footnote
// 9 of the paper) and the current intermediate level (-1 = unset).
type thm21Header struct {
	target int
	label  []int32
	j      int
	scheme *Thm21
	// ms is decode's slot buffer, one per level, so a hop allocates
	// nothing; it is scratch, not header content.
	ms []int32
}

// Bits implements Header: target id + one zoom pointer per level + the
// level field.
func (h *thm21Header) Bits() int {
	b := h.scheme.idW + h.scheme.jW
	for _, w := range h.scheme.levelWidth {
		b += w
	}
	return b
}

// InitHeader implements Scheme.
func (s *Thm21) InitHeader(source, target int) (Header, error) {
	l := s.levels
	if target < 0 || target >= len(s.labels)/l {
		return nil, fmt.Errorf("thm21: invalid target %d", target)
	}
	return &thm21Header{
		target: target,
		label:  s.labels[target*l : (target+1)*l : (target+1)*l],
		j:      -1,
		scheme: s,
		ms:     make([]int32, l),
	}, nil
}

// decode runs the Claim 2.2 iteration at node u: it fills ms[0..k] with
// the slots of the zoom elements of the header's target in u's rings, where
// k = j_ut is the deepest decodable level, and returns k. Each slot it
// reads is in its ring (the level-0 ring is shared; later slots are ζ
// values), and a ζ row too short for the label's pointer holds nullCell for it.
func (s *Thm21) decode(u int, label, ms []int32) int {
	ring := s.ring[u*s.levels : (u+1)*s.levels]
	ms[0] = label[0]
	for j := 0; j+1 < len(label); j++ {
		k := ring[j] + uint32(ms[j])
		lo, hi, b := s.row[k], s.row[k+1], uint32(label[j+1])
		if b >= hi-lo || s.cells[lo+b] == nullCell {
			return j
		}
		ms[j+1] = int32(s.cells[lo+b])
	}
	return len(label) - 1
}

// NextHop implements Scheme: the routing algorithm of Theorem 2.1.
func (s *Thm21) NextHop(u int, hdr Header) (int, bool, error) {
	h, ok := hdr.(*thm21Header)
	if !ok {
		return 0, false, fmt.Errorf("thm21: foreign header %T", hdr)
	}
	if u == h.target {
		return 0, true, nil
	}
	jut := s.decode(u, h.label, h.ms)
	if h.j > jut {
		return 0, false, fmt.Errorf("thm21: claim 2.4(b) violated at node %d: header level %d > j_ut %d", u, h.j, jut)
	}
	base := u * s.levels
	if h.j < 0 || s.self[base+h.j] == h.ms[h.j] {
		// No intermediate target yet, or u is the current one: zoom to
		// the deepest.
		h.j = jut
		if s.self[base+jut] == h.ms[jut] {
			return 0, false, fmt.Errorf("thm21: node %d became its own deepest intermediate target (level %d)", u, jut)
		}
	}
	m := h.ms[h.j]
	e := s.hop(u, h.j, m)
	if e < 0 {
		return 0, false, fmt.Errorf("thm21: missing first hop at node %d level %d slot %d", u, h.j, m)
	}
	return int(e), false, nil
}

// hop is the out-edge index node u stores toward slot m of its j-ring.
func (s *Thm21) hop(u, j int, m int32) int32 {
	return s.hops[int(s.ring[u*s.levels+j])+int(m)]
}

// ringSize is |Y_uj|.
func (s *Thm21) ringSize(u, j int) int {
	k := u*s.levels + j
	return int(s.ring[k+1] - s.ring[k])
}

// TableBits implements Scheme: ζ tables + first-hop pointers + self slots
// + the node's own id. Each ζ cell of ζ_uj is WidthFor(|Y_(u,j+1)|+1)
// bits, the +1 covering nullCell.
func (s *Thm21) TableBits(u int) (int, error) {
	bits := s.idW
	for j := 0; j < s.levels; j++ {
		size := s.ringSize(u, j)
		if j+1 < s.levels {
			k := u*s.levels + j
			cells := int(s.row[s.ring[k+1]] - s.row[s.ring[k]])
			bits += cells * bitio.WidthFor(s.ringSize(u, j+1)+1)
		}
		bits += size * s.doutW
		// One self-slot marker per level.
		bits += bitio.WidthFor(size + 1)
	}
	return bits, nil
}

// LabelBits implements Scheme: the zoom pointer sequence plus the id.
func (s *Thm21) LabelBits(u int) (int, error) {
	bits := s.idW
	for _, w := range s.levelWidth {
		bits += w
	}
	return bits, nil
}

// MaxRingSize reports the realized K.
func (s *Thm21) MaxRingSize() int { return s.maxRing }

// Levels reports the number of distance scales (≈ log ∆).
func (s *Thm21) Levels() int { return s.levels }

// Bytes reports the arena's size in memory: the router's whole state
// beyond its overlay graph and a few widths.
func (s *Thm21) Bytes() int {
	return 4*(len(s.ring)+len(s.hops)+len(s.row)+len(s.self)+len(s.labels)) + 2*len(s.cells)
}

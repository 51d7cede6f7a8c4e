package routing

import (
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
type Thm21 struct {
	name  string
	g     *graph.Graph
	dist  Distancer
	delta float64

	hier  *nets.Hierarchy
	rings *core.Collection
	// zoomRings[j][f] is B_f(3·s_j) ∩ G_j for f ∈ G_(j−1) (nil for
	// non-members); zoomRings[0] is the shared level-0 ring.
	zoomRings [][]core.Enum
	// zeta[u][j] translates (ϕ_uj(f), zoomIdx) -> ϕ_(u,j+1)(w).
	zeta [][]*core.Table
	// firstHop[u][j][slot] is the out-edge index toward ring_uj.Node(slot)
	// (-1 when the ring node is u itself).
	firstHop [][][]int32
	// selfIdx[u][j] is u's slot in its own j-ring, or -1.
	selfIdx [][]int32
	// labels[t] is the zoom pointer sequence n_t0, n_t1, ...
	labels [][]int32

	levelWidth []int // bits per zoom pointer, per level
	idW, jW    int
	doutW      int
}

var _ Scheme = (*Thm21)(nil)

// LinkOracle resolves "the first edge of a shortest path from u to v" —
// APSP first hops for routing on graphs, direct overlay edges for routing
// on metrics.
type LinkOracle func(u, v int) (edge int, err error)

// NewThm21 builds the Theorem 2.1 scheme for a weighted graph: rings live
// on the graph's shortest-path metric and legs follow APSP first hops.
func NewThm21(g *graph.Graph, delta float64) (*Thm21, error) {
	apsp, err := graph.AllPairs(g)
	if err != nil {
		return nil, fmt.Errorf("thm21: %w", err)
	}
	oracle := func(u, v int) (int, error) {
		e := apsp.FirstHop(u, v)
		if e < 0 {
			return 0, fmt.Errorf("thm21: no first hop %d->%d", u, v)
		}
		return e, nil
	}
	return buildThm21("thm2.1/graph", g, apsp.Metric(), delta, oracle)
}

// NewThm21Metric builds the Section 4.1 variant: the scheme constructs its
// own overlay (one direct link per ring neighbor) on the given metric, so
// the out-degree of the overlay is part of the measured cost (Table 2).
func NewThm21Metric(idx metric.BallIndex, delta float64) (*Thm21, error) {
	pre, err := buildRings(idx, delta)
	if err != nil {
		return nil, err
	}
	neighbors := make([][]int, idx.N())
	par.For(0, idx.N(), func(u int) {
		neighbors[u] = pre.rings.ByNode[u].Neighbors()
	})
	overlay, err := graph.OverlayFromNeighbors(idx, neighbors)
	if err != nil {
		return nil, err
	}
	oracle := func(u, v int) (int, error) {
		e := overlay.SearchEdge(u, v)
		if e < 0 {
			return 0, fmt.Errorf("thm21: overlay misses link %d->%d", u, v)
		}
		return e, nil
	}
	s, err := finishThm21("thm2.1/metric", overlay, idx, delta, pre, oracle)
	if err != nil {
		return nil, err
	}
	return s, nil
}

type thm21Rings struct {
	hier  *nets.Hierarchy
	rings *core.Collection
	c     float64
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

func buildRings(idx metric.BallIndex, delta float64) (*thm21Rings, error) {
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
	return &thm21Rings{hier: h, rings: rings, c: c}, nil
}

func buildThm21(name string, g *graph.Graph, dist Distancer, delta float64, oracle LinkOracle) (*Thm21, error) {
	idx := metric.NewIndex(dist)
	pre, err := buildRings(idx, delta)
	if err != nil {
		return nil, err
	}
	return finishThm21(name, g, idx, delta, pre, oracle)
}

func finishThm21(name string, g *graph.Graph, idx metric.BallIndex, delta float64, pre *thm21Rings, oracle LinkOracle) (*Thm21, error) {
	n := idx.N()
	h, rings := pre.hier, pre.rings
	levels := h.NumLevels()
	s := &Thm21{
		name:  name,
		g:     g,
		dist:  idx,
		delta: delta,
		hier:  h,
		rings: rings,
	}

	// Zoom targets f_tj: nearest net point per level.
	zoom := make([][]int, n)
	for t := 0; t < n; t++ {
		zoom[t] = make([]int, levels)
		for j := 0; j < levels; j++ {
			f, _ := h.NearestInLevel(j, t)
			zoom[t][j] = f
		}
	}

	// Zoom rings: level 0 is the shared full ring; level j >= 1 is
	// B_f(3·s_j) ∩ G_j for every f ∈ G_(j−1).
	s.zoomRings = make([][]core.Enum, levels)
	s.zoomRings[0] = make([]core.Enum, 1)
	s.zoomRings[0][0] = rings.Ring(0, 0) // shared by construction
	for j := 1; j < levels; j++ {
		ringsJ := make([]core.Enum, n)
		for _, f := range h.Level(j - 1) {
			ringsJ[f] = core.NewEnum(h.InBall(j, f, 3*h.Scale(j)))
		}
		s.zoomRings[j] = ringsJ
	}

	// Labels: n_t0 indexes the shared ring; n_tj indexes the zoom ring of
	// f_(t,j−1).
	s.labels = make([][]int32, n)
	for t := 0; t < n; t++ {
		lab := make([]int32, levels)
		i0, ok := s.zoomRings[0][0].IndexOf(zoom[t][0])
		if !ok {
			return nil, fmt.Errorf("thm21: f_%d,0 missing from shared ring", t)
		}
		lab[0] = int32(i0)
		for j := 1; j < levels; j++ {
			f := zoom[t][j-1]
			iz, ok := s.zoomRings[j][f].IndexOf(zoom[t][j])
			if !ok {
				return nil, fmt.Errorf("thm21: f_(%d,%d) not in zoom ring of f_(%d,%d)", t, j, t, j-1)
			}
			lab[j] = int32(iz)
		}
		s.labels[t] = lab
	}

	// Translation tables ζ_uj and first-hop pointers: iteration u writes
	// only slot u, so the loop runs over the worker pool.
	s.zeta = make([][]*core.Table, n)
	s.firstHop = make([][][]int32, n)
	s.selfIdx = make([][]int32, n)
	errs := make([]error, par.Workers(0, n))
	par.ForWorker(0, n, func(w, u int) {
		if errs[w] == nil {
			errs[w] = s.fillNode(u, oracle)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Bit widths.
	s.levelWidth = make([]int, levels)
	s.levelWidth[0] = bitio.WidthFor(s.zoomRings[0][0].Size())
	for j := 1; j < levels; j++ {
		max := 0
		for _, f := range h.Level(j - 1) {
			if sz := s.zoomRings[j][f].Size(); sz > max {
				max = sz
			}
		}
		s.levelWidth[j] = bitio.WidthFor(max)
	}
	s.idW = bitio.WidthFor(n)
	s.jW = bitio.WidthFor(levels + 1)
	s.doutW = bitio.WidthFor(g.MaxOutDegree())
	return s, nil
}

// fillNode builds node u's first-hop pointers, self slots and ζ tables
// from the rings and zoom rings (read-only by now). Every ring and zoom
// ring enumerates its nodes in ascending id order, so a ζ row is one
// merge walk of f's zoom ring against u's next ring.
func (s *Thm21) fillNode(u int, oracle LinkOracle) error {
	rings, levels := s.rings, s.hier.NumLevels()
	s.zeta[u] = make([]*core.Table, levels-1)
	s.firstHop[u] = make([][]int32, levels)
	s.selfIdx[u] = make([]int32, levels)
	for j := 0; j < levels; j++ {
		nodes := rings.Ring(u, j).Nodes()
		hops := make([]int32, len(nodes))
		s.selfIdx[u][j] = -1
		for a, v := range nodes {
			if v == u {
				hops[a] = -1
				s.selfIdx[u][j] = int32(a)
				continue
			}
			e, err := oracle(u, v)
			if err != nil {
				return err
			}
			hops[a] = int32(e)
		}
		s.firstHop[u][j] = hops
	}
	for j := 0; j+1 < levels; j++ {
		ring := rings.Ring(u, j).Nodes()
		next := rings.Ring(u, j+1).Nodes()
		widths := make([]int, len(ring))
		for a, f := range ring {
			widths[a] = s.zoomRings[j+1][f].Size()
		}
		table := core.NewTable(widths, len(next))
		for a, f := range ring {
			m := 0
			for b, w := range s.zoomRings[j+1][f].Nodes() {
				for m < len(next) && next[m] < w {
					m++
				}
				if m == len(next) {
					break
				}
				if next[m] == w {
					if err := table.Set(a, b, m); err != nil {
						return err
					}
				}
			}
		}
		s.zeta[u][j] = table
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
	if target < 0 || target >= len(s.labels) {
		return nil, fmt.Errorf("thm21: invalid target %d", target)
	}
	return &thm21Header{target: target, label: s.labels[target], j: -1, scheme: s}, nil
}

// decode runs the Claim 2.2 iteration at node u: it returns the slots
// m_0..m_k of the zoom elements of the header's target in u's rings, where
// k = j_ut is the deepest decodable level.
func (s *Thm21) decode(u int, label []int32) []int32 {
	ms := make([]int32, 1, len(label))
	ms[0] = label[0] // shared level-0 enumeration
	for j := 0; j+1 < len(label); j++ {
		next := s.zeta[u][j].Get(int(ms[j]), int(label[j+1]))
		if next == core.Null {
			break
		}
		ms = append(ms, int32(next))
	}
	return ms
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
	ms := s.decode(u, h.label)
	jut := len(ms) - 1
	pick := func() (int, bool, error) {
		h.j = jut
		m := ms[jut]
		if s.selfIdx[u][jut] == m {
			return 0, false, fmt.Errorf("thm21: node %d became its own deepest intermediate target (level %d)", u, jut)
		}
		e := s.firstHop[u][jut][m]
		if e < 0 {
			return 0, false, fmt.Errorf("thm21: missing first hop at node %d level %d slot %d", u, jut, m)
		}
		return int(e), false, nil
	}
	if h.j < 0 {
		return pick()
	}
	if h.j > jut {
		return 0, false, fmt.Errorf("thm21: claim 2.4(b) violated at node %d: header level %d > j_ut %d", u, h.j, jut)
	}
	m := ms[h.j]
	if s.selfIdx[u][h.j] == m {
		// u is the current intermediate target: zoom deeper.
		return pick()
	}
	e := s.firstHop[u][h.j][m]
	if e < 0 {
		return 0, false, fmt.Errorf("thm21: missing first hop at node %d level %d slot %d", u, h.j, m)
	}
	return int(e), false, nil
}

// TableBits implements Scheme: ζ tables + first-hop pointers + self slots
// + the node's own id.
func (s *Thm21) TableBits(u int) (int, error) {
	bits := s.idW
	for _, t := range s.zeta[u] {
		bits += t.Bits()
	}
	for j, hops := range s.firstHop[u] {
		bits += len(hops) * s.doutW
		// One self-slot marker per level.
		bits += bitio.WidthFor(s.rings.Ring(u, j).Size() + 1)
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
func (s *Thm21) MaxRingSize() int { return s.rings.MaxRingSize() }

// Levels reports the number of distance scales (≈ log ∆).
func (s *Thm21) Levels() int { return s.hier.NumLevels() }

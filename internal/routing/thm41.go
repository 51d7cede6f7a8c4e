package routing

import (
	"fmt"
	"math"

	"rings/internal/bitio"
	"rings/internal/distlabel"
	"rings/internal/graph"
	"rings/internal/intset"
	"rings/internal/metric"
	"rings/internal/nets"
	"rings/internal/par"
)

// Thm41 is the paper's Theorem 4.1 scheme: a "really simple" (1+δ)-stretch
// routing scheme that uses a distance labeling scheme as a black box. The
// routing table of u stores, for each net-ring neighbor v ∈ F_j(u) =
// B_u(4·s_j/δ') ∩ F_j, the pair (ID(v), distance label L_v) plus a
// first-hop pointer; headers carry L_t and the current intermediate
// target's ID. At an intermediate target, the node picks the neighbor
// minimizing the non-contracting label estimate D(L_v, L_t).
//
// The black box is the Theorem 3.4 labeling at approximation 3/2 (the
// paper's choice). The internal δ' is derived from the target stretch:
// each switch lands within (3/2)·δ'·d of the target, so stretch
// <= 1 + 2ρ/(1−ρ) with ρ = (3/2)δ'; we pick δ' to make that 1+delta.
type Thm41 struct {
	name  string
	g     *graph.Graph
	idx   metric.BallIndex
	delta float64

	dls *distlabel.Scheme
	// neighborSets[u] is the sorted union of F_j(u) over all levels.
	neighborSets [][]int
	// hop[u] maps a neighbor's id to the out-edge toward it.
	hop []map[int]int32
	// dlsBits[u] caches the measured label size of u's DLS label.
	dlsBits []int

	idW, doutW int
}

var _ Scheme = (*Thm41)(nil)

// NewThm41 builds the Theorem 4.1 scheme over a weighted graph.
func NewThm41(g *graph.Graph, delta float64) (*Thm41, error) {
	apsp, err := graph.AllPairs(g)
	if err != nil {
		return nil, fmt.Errorf("thm41: %w", err)
	}
	idx := metric.NewIndex(apsp.Metric())
	oracle := func(u, v int) (int, error) {
		e := apsp.FirstHop(u, v)
		if e < 0 {
			return 0, fmt.Errorf("thm41: no first hop %d->%d", u, v)
		}
		return e, nil
	}
	return buildThm41("thm4.1/graph", g, idx, delta, oracle, nil)
}

// NewThm41Metric builds the Section 4.1 overlay variant on a metric.
func NewThm41Metric(idx metric.BallIndex, delta float64) (*Thm41, error) {
	sets, err := thm41Neighbors(idx, thm41InternalDelta(delta))
	if err != nil {
		return nil, err
	}
	overlay, err := graph.OverlayFromNeighbors(idx, sets)
	if err != nil {
		return nil, err
	}
	oracle := func(u, v int) (int, error) {
		e := overlay.SearchEdge(u, v)
		if e < 0 {
			return 0, fmt.Errorf("thm41: overlay misses link %d->%d", u, v)
		}
		return e, nil
	}
	return buildThm41("thm4.1/metric", overlay, idx, delta, oracle, sets)
}

// RingOverlay builds the symmetrized Theorem 4.1 ring overlay of a
// metric: every node links to its net-ring neighbors F_j(u). Its pairs
// admit near-shortest paths with logarithmically many hops — the "good
// network topology" Theorem B.1 assumes — which makes it the natural
// workload for the two-mode scheme.
func RingOverlay(idx metric.BallIndex, delta float64) (*graph.Graph, error) {
	sets, err := thm41Neighbors(idx, thm41InternalDelta(delta))
	if err != nil {
		return nil, err
	}
	over, err := graph.OverlayFromNeighbors(idx, sets)
	if err != nil {
		return nil, err
	}
	return graph.Symmetrize(over), nil
}

// thm41InternalDelta converts the target stretch slack into the internal
// δ': stretch <= 1 + 2ρ/(1−ρ) with ρ = 1.5·δ' per-switch decay.
func thm41InternalDelta(delta float64) float64 {
	rho := delta / (2 + delta)
	return rho / 1.5
}

// thm41Neighbors computes F_j(u) = B_u(4·s_j/δ') ∩ F_j over the labeling
// net hierarchy.
func thm41Neighbors(idx metric.BallIndex, deltaInt float64) ([][]int, error) {
	h, err := nets.NewHierarchy(idx, nets.LabelingScales(idx))
	if err != nil {
		return nil, err
	}
	asc := nets.Ascending{H: h}
	n := idx.N()
	sets := make([][]int, n)
	scratch := make([]ringScratch, par.Workers(0, n))
	par.ForWorker(0, n, func(w, u int) {
		sc := &scratch[w]
		sc.seen.Reset(n)
		for j := 0; j <= asc.MaxJ(); j++ {
			r := 4 * asc.Scale(j) / deltaInt
			sc.buf = asc.AppendInBall(sc.buf[:0], j, u, r)
			for _, v := range sc.buf {
				if v != u {
					sc.seen.Add(v)
				}
			}
		}
		sets[u] = sc.seen.Sorted()
	})
	return sets, nil
}

// ringScratch is one worker's reusable state for thm41Neighbors.
type ringScratch struct {
	seen intset.Set
	buf  []int
}

func buildThm41(name string, g *graph.Graph, idx metric.BallIndex, delta float64, oracle LinkOracle, sets [][]int) (*Thm41, error) {
	if delta <= 0 || delta > 1 {
		return nil, fmt.Errorf("thm41: delta = %v, want (0, 1]", delta)
	}
	deltaInt := thm41InternalDelta(delta)
	var err error
	if sets == nil {
		sets, err = thm41Neighbors(idx, deltaInt)
		if err != nil {
			return nil, err
		}
	}
	// The 3/2-approximate black box of the paper.
	dls, err := distlabel.New(idx, 0.5)
	if err != nil {
		return nil, fmt.Errorf("thm41: black-box labeling: %w", err)
	}
	n := idx.N()
	s := &Thm41{
		name:         name,
		g:            g,
		idx:          idx,
		delta:        delta,
		dls:          dls,
		neighborSets: sets,
		hop:          make([]map[int]int32, n),
		dlsBits:      make([]int, n),
		idW:          bitio.WidthFor(n),
		doutW:        bitio.WidthFor(g.MaxOutDegree()),
	}
	for u := 0; u < n; u++ {
		m := make(map[int]int32, len(sets[u]))
		for _, v := range sets[u] {
			e, err := oracle(u, v)
			if err != nil {
				return nil, err
			}
			m[v] = int32(e)
		}
		s.hop[u] = m
		b, err := dls.LabelBits(u)
		if err != nil {
			return nil, err
		}
		s.dlsBits[u] = b
	}
	return s, nil
}

// Name implements Scheme.
func (s *Thm41) Name() string { return s.name }

// Graph implements Scheme.
func (s *Thm41) Graph() *graph.Graph { return s.g }

// thm41Header is L_t plus the intermediate target id (-1 = unset).
type thm41Header struct {
	target       int
	label        *distlabel.Label
	intermediate int
	scheme       *Thm41
}

// Bits implements Header: the target's label + ID(t) + ID(t').
func (h *thm41Header) Bits() int {
	return h.scheme.dlsBits[h.target] + 2*h.scheme.idW
}

// InitHeader implements Scheme.
func (s *Thm41) InitHeader(source, target int) (Header, error) {
	if target < 0 || target >= s.idx.N() {
		return nil, fmt.Errorf("thm41: invalid target %d", target)
	}
	return &thm41Header{target: target, label: s.dls.Label(target), intermediate: -1, scheme: s}, nil
}

// NextHop implements Scheme.
func (s *Thm41) NextHop(u int, hdr Header) (int, bool, error) {
	h, ok := hdr.(*thm41Header)
	if !ok {
		return 0, false, fmt.Errorf("thm41: foreign header %T", hdr)
	}
	if u == h.target {
		return 0, true, nil
	}
	if h.intermediate == -1 || h.intermediate == u {
		best, bestD := -1, math.Inf(1)
		for _, v := range s.neighborSets[u] {
			if v == h.target {
				best, bestD = v, 0
				break
			}
			_, up, ok := distlabel.Estimate(s.dls.Label(v), h.label)
			if !ok {
				continue
			}
			if up < bestD {
				best, bestD = v, up
			}
		}
		if best < 0 {
			return 0, false, fmt.Errorf("thm41: node %d found no viable intermediate target", u)
		}
		h.intermediate = best
	}
	e, ok := s.hop[u][h.intermediate]
	if !ok {
		return 0, false, fmt.Errorf("thm41: node %d has no link info for intermediate %d", u, h.intermediate)
	}
	return int(e), false, nil
}

// TableBits implements Scheme: per neighbor an (ID, label, first hop)
// triple, plus the node's own id.
func (s *Thm41) TableBits(u int) (int, error) {
	bits := s.idW
	for _, v := range s.neighborSets[u] {
		bits += s.idW + s.dlsBits[v] + s.doutW
	}
	return bits, nil
}

// LabelBits implements Scheme: the DLS label plus the id.
func (s *Thm41) LabelBits(u int) (int, error) {
	return s.dlsBits[u] + s.idW, nil
}

// MaxNeighbors reports the largest per-node overlay neighborhood.
func (s *Thm41) MaxNeighbors() int {
	max := 0
	for _, set := range s.neighborSets {
		if len(set) > max {
			max = len(set)
		}
	}
	return max
}

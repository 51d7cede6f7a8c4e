// Package distlabel implements the paper's distance labeling schemes.
//
// Theorem 3.4: every doubling metric has a (1+δ)-approximate distance
// labeling scheme with O_{α,δ}(log n)(log log ∆)-bit labels — optimal for
// ∆ >= n^log n. The construction elaborates Theorem 3.2's triangulation:
// the labels drop ceil(log n)-bit global node identifiers entirely.
// Instead, every node u carries
//
//   - distances to its X/Y-neighbors, indexed by a host enumeration ϕ_u
//     whose level-0 prefix is shared by all nodes;
//   - its zooming sequence f_u0, f_u1, ..., where each f_(u,i+1) is named
//     only by its index in the virtual enumeration ψ of f_ui's virtual
//     neighbors T_(f_ui) = X ∪ Z ∪ (∪_{v∈X} Z_v);
//   - translation maps ζ_ui that convert "w is the y-th virtual neighbor
//     of my i-level neighbor v" into w's index in ϕ_u.
//
// Estimating d(u,v) from two labels walks both zooming sequences,
// translating each step through both labels' ζ maps, and harvests every
// common neighbor identified along the way; the paper's Claims 3.5/3.6
// guarantee that a beacon within δ'·d of u or v is among them.
//
// Deviations from the paper's text (see DESIGN.md §4): level-0 radii are
// uniformized to the diameter so the shared-prefix trick is literally
// true, and the Z-ring net scale uses divisor 128 instead of 64 — the
// paper's constant is marginal under worst-case floor alignment in
// Claim 3.5(b), and one extra octave makes the containment airtight
// (tests verify Claim 3.5 exhaustively).
//
// The package also provides Simple, the [44]-style corollary scheme
// (Theorem 3.2's beacons plus global IDs) that Theorem 3.4 improves on.
package distlabel

import (
	"fmt"
	"slices"
	"time"

	"rings/internal/core"
	"rings/internal/intset"
	"rings/internal/metric"
	"rings/internal/par"
	"rings/internal/triangulation"
)

// zScaleDiv is the Z-ring net-scale divisor (paper: 64; see package doc).
const zScaleDiv = 128

// TransEntry is one ζ entry: for a fixed x (host index of v in ϕ_u), the
// pair (Y, Z) says "v's Y-th virtual neighbor has host index Z in ϕ_u".
// It is exported so the serving layer's flat arena packer can re-lay the
// maps without a copy through an intermediate representation.
type TransEntry struct {
	Y int32
	Z int32
}

// LevelMap is the translation map ζ_ui for one level: Keys are host
// indices x, strictly ascending, and Lists[k] is the list of entries
// under Keys[k], sorted by Y. Keys that translate alike may share one
// list.
type LevelMap struct {
	Keys  []int32
	Lists [][]TransEntry
}

// Get returns the entries under host index x (nil when x is no key).
func (lm LevelMap) Get(x int32) []TransEntry {
	if k, ok := slices.BinarySearch(lm.Keys, x); ok {
		return lm.Lists[k]
	}
	return nil
}

// Label is one node's distance label. It intentionally holds no global
// node identifiers — all references are host-enumeration indices, virtual
// indices, or distances.
type Label struct {
	// Level0Count is the size of the shared level-0 prefix of the host
	// enumeration (identical across all labels of one scheme).
	Level0Count int
	// Dists[h] is the distance from the label's node to its h-th host
	// neighbor.
	Dists []float64
	// Zoom0 is the host index of f_u0 (within the shared prefix).
	Zoom0 int
	// ZoomPsi[i] is ψ_(f_ui)(f_(u,i+1)) for i = 0..IMax-1.
	ZoomPsi []int32
	// Trans[i] is ζ_ui.
	Trans []LevelMap

	// hostNodes maps host index -> global node id. It is debug/audit
	// information and is excluded from Bits(); estimation never reads it.
	hostNodes []int
}

// Scheme is a Theorem 3.4 distance labeling over one metric space.
type Scheme struct {
	// Delta is the advertised approximation: D+ <= (1+Delta) * d.
	Delta float64
	// Cons is the shared Theorem 3.2 construction (δ' = Delta/6).
	Cons *triangulation.Construction
	// MaxT is the largest |T_u|; virtual pointers take WidthFor(MaxT) bits.
	MaxT int

	labels []*Label
	// tSets holds every ψ_u, each saturated one as the shared identity
	// row (kept for verification and B.1 reuse).
	tSets VirtualSets
	// hostEnums[u] is ϕ_u.
	hostEnums []core.Enum
	// Timings records how long each label-build phase took.
	Timings Timings
}

// Timings is the per-phase wall-clock breakdown of a label build (the
// label phases of oracle.BuildStats).
type Timings struct {
	// ZSets covers the Z-neighbor union pass.
	ZSets time.Duration
	// TSets covers the X unions and virtual neighbor sets T_u.
	TSets time.Duration
	// HostEnums covers the host enumerations ϕ_u.
	HostEnums time.Duration
	// Labels covers the per-node label assembly (distances, zooming
	// pointers, ζ maps).
	Labels time.Duration
}

// New builds the Theorem 3.4 scheme with target approximation delta in
// (0, 1], using internal δ' = delta/6.
func New(idx metric.BallIndex, delta float64) (*Scheme, error) {
	if delta <= 0 || delta > 1 {
		return nil, fmt.Errorf("distlabel: delta = %v, want (0, 1]", delta)
	}
	cons, err := triangulation.NewConstruction(idx, delta/6)
	if err != nil {
		return nil, err
	}
	return FromConstruction(cons, delta)
}

// NewInternal builds a scheme directly at internal δ' ∈ (0, 1/2) (the
// advertised Delta is then 6·δ'). Theorem B.1 uses this to pick a tighter
// δ' than New's delta/6 mapping.
func NewInternal(idx metric.BallIndex, deltaPrime float64) (*Scheme, error) {
	cons, err := triangulation.NewConstruction(idx, deltaPrime)
	if err != nil {
		return nil, err
	}
	return FromConstruction(cons, 6*deltaPrime)
}

// FromConstruction builds the scheme over an existing construction.
//
// Every phase is parallel across the construction's worker pool
// (cons.Params.Workers) and writes only per-node slots, so the labels
// are byte-identical for any worker count; per-worker scratch sets and
// sorted-slice merges replace the map[int]bool unions that used to
// dominate the build's allocation profile. The phases delegate to the
// exported builders (BuildZSets, BuildTSet, BuildHostEnum, FillLabel),
// which the churn engine's localized repair reuses one node at a time —
// one construction implementation, two drivers.
func FromConstruction(cons *triangulation.Construction, delta float64) (*Scheme, error) {
	n := cons.Idx.N()
	workers := cons.Params.Workers
	nw := par.Workers(workers, n)
	s := &Scheme{
		Delta:     delta,
		Cons:      cons,
		labels:    make([]*Label, n),
		tSets:     NewVirtualSets(IdentitySet(n), make([][]int, n)),
		hostEnums: make([]core.Enum, n),
	}

	// Z-neighbor sets: Z_u = union over scales t_k of B_u(t_k) ∩ G_jz(k).
	start := time.Now()
	zAll := BuildZSets(cons, workers)
	s.Timings.ZSets = time.Since(start)

	// X unions and virtual neighbor sets T_u = X_u ∪ Z_u ∪ (∪_{v∈X_u} Z_v).
	start = time.Now()
	xAll := BuildXAll(cons, workers)
	sets := make([]intset.Set, nw)
	maxTs := make([]int, nw)
	par.ForWorker(workers, n, func(w, u int) {
		row := BuildTSet(xAll, zAll, u, &sets[w], s.tSets.identity)
		s.tSets.rows[u] = row
		maxTs[w] = max(maxTs[w], len(row))
	})
	for _, m := range maxTs {
		if m > s.MaxT {
			s.MaxT = m
		}
	}
	s.Timings.TSets = time.Since(start)

	// Host enumerations: shared level-0 prefix, then everything else.
	start = time.Now()
	lvl0Buf := make([][]int, nw)
	par.ForWorker(workers, n, func(w, u int) {
		s.hostEnums[u], lvl0Buf[w] = BuildHostEnum(cons, u, &sets[w], lvl0Buf[w])
	})
	level0Count, err := Level0Count(cons)
	if err != nil {
		return nil, err
	}
	s.Timings.HostEnums = time.Since(start)

	// Labels.
	start = time.Now()
	scr := make([]*LabelScratch, nw)
	for w := range scr {
		scr[w] = NewLabelScratch(n)
	}
	errs := make([]error, nw)
	par.ForWorker(workers, n, func(w, u int) {
		if errs[w] != nil {
			return
		}
		lab, err := FillLabel(cons, u, s.hostEnums[u], level0Count, s.tSets, scr[w])
		if err != nil {
			errs[w] = err
			return
		}
		s.labels[u] = lab
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.Timings.Labels = time.Since(start)
	return s, nil
}

// Label returns node u's label.
func (s *Scheme) Label(u int) *Label { return s.labels[u] }

// VirtualEnum exposes ψ_u (for Theorem B.1's reuse and for tests).
func (s *Scheme) VirtualEnum(u int) core.Enum { return s.tSets.Enum(u) }

// HostEnum exposes ϕ_u (for Theorem B.1's reuse and for tests).
func (s *Scheme) HostEnum(u int) core.Enum { return s.hostEnums[u] }

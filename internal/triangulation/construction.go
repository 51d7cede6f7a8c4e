// Package triangulation implements Theorem 3.2 of the paper: every
// doubling metric has a (0,δ)-triangulation of order (1/δ)^O(α) · log n,
// computed efficiently. A triangulation assigns every node u a beacon set
// S_u with known distances; for a pair (u,v) the triangle inequality gives
//
//	D−(u,v) = max |d_ub − d_vb|  <=  d_uv  <=  min (d_ub + d_vb) = D+(u,v)
//
// over common beacons b ∈ S_u ∩ S_v. A (0,δ)-triangulation guarantees
// D+/D− <= 1+δ for every pair — the pair of bounds is a per-estimate
// quality certificate, the property that distinguishes this construction
// from the shared-beacon schemes of [33, 50] (implemented here as the
// baseline, which covers only a 1−ε fraction of pairs).
//
// The beacons come from two families of rings of neighbors (all the
// machinery is shared with Theorem 3.4 via Construction):
//
//   - X_i-neighbors: designated centers of the balls of a (2^-i, µ)-packing
//     F_i that fit, center-plus-radius, inside B_u(r_(u,i-1));
//   - Y_i-neighbors: the net points of a nested hierarchy at scale
//     ~δ·r_ui/4 that lie within 12·r_ui/δ of u,
//
// where r_ui is the radius of the smallest ball around u holding at least
// n/2^i nodes. One deviation from the paper's text, documented in
// DESIGN.md §4: we set r_u0 to the diameter for every node, which
// preserves every containment the proofs use and makes the level-0
// neighbor sets — and hence the shared prefix of all host enumerations in
// Theorem 3.4 — identical across nodes.
package triangulation

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rings/internal/measure"
	"rings/internal/metric"
	"rings/internal/nets"
	"rings/internal/packing"
	"rings/internal/par"
)

// Params tunes the ring geometry of the construction. The zero value is
// invalid; use DefaultParams for the paper's constants.
//
// The paper's worst-case constants make the per-level neighbor count
// K = (O(1/δ))^O(α) — tens of thousands for realistic δ and α — so at lab
// scale (n ≲ 10^4) every ring swallows the whole space and the
// triangulation order saturates at n. That is faithful but hides the
// O(log n) shape, so experiments may also run a tuned profile with
// smaller rings; the (0,δ) guarantee is then re-verified per instance by
// VerifyAllPairs instead of being inherited from the worst-case proof
// (see DESIGN.md §4 and EXPERIMENTS.md E4).
type Params struct {
	// DeltaPrime is the internal δ of the paper's construction,
	// in (0, 1/2).
	DeltaPrime float64
	// YBallFactor scales the Y-ring ball: radius = YBallFactor * r_ui.
	// Paper: 12/δ'. It must be at least 1: r_u0 is the diameter, so only
	// then does every Y_u0 hold the whole level-0 net, the host prefix
	// every distance label shares.
	YBallFactor float64
	// YScaleFactor scales the Y-ring net: scale = YScaleFactor * r_ui.
	// Paper: δ'/4.
	YScaleFactor float64
	// Workers bounds build parallelism across the per-node and per-ball
	// loops (0 = GOMAXPROCS). The output is byte-identical for every
	// worker count: all parallel fills write preassigned slots.
	Workers int
	// RefN, when non-zero, switches the construction to the
	// churn-stable profile:
	//
	//   - the mass normalization and level count pin to RefN instead of
	//     the live node count (IMax = floor(log2 RefN), the level-i
	//     radius targets ceil(2^-i * RefN) nodes, the packing measure
	//     weighs every node 1/RefN) — otherwise one membership change
	//     renormalizes every mass in the space;
	//   - the radii r_ui (and the packing's per-node radius starts) are
	//     snapped up to the net-scale ladder (powers of two over the
	//     finest net scale) — the raw k-th-neighbor distance moves a
	//     little whenever any node enters or leaves the ball, and every
	//     downstream threshold test would flip with it; the quantized
	//     radius moves only when the raw one crosses a power-of-two
	//     boundary.
	//
	// Both are constant-factor relaxations the proofs absorb (rings
	// inflate by at most 2x the occupancy ratio; coverage budgets only
	// grow), re-checked per instance under the tuned profile. The churn
	// engine sets RefN to the universe capacity so mutations perturb
	// the substrate only locally; 0 keeps the paper-exact live-count
	// behavior, bit-identical to the pre-churn implementation. Note
	// Claim 3.3 (|r_ui - r_vi| <= d_uv) holds for raw radii only;
	// Verify is not applicable under a pinned RefN.
	RefN int
	// StableOrder, when non-nil, is the consideration order for every
	// id-order-sensitive greedy scan (net construction, packing
	// selection tie-breaks): a permutation of the node ids, churned
	// views pass their ascending base-id order. Internal-id renames
	// then cannot reshuffle any greedy scan, which is what keeps a
	// single membership change from cascading through the nets and
	// packings globally. nil keeps the id order (the static behavior).
	StableOrder []int
}

// DefaultParams returns the paper's constants for a given δ'.
func DefaultParams(deltaPrime float64) Params {
	return Params{
		DeltaPrime:   deltaPrime,
		YBallFactor:  12 / deltaPrime,
		YScaleFactor: deltaPrime / 4,
	}
}

// TunedParams returns a lab-scale profile: same δ', but Y-rings reach only
// ballFactor*r_ui (at least 1) at net scale r_ui/4. Pair with
// VerifyAllPairs.
func TunedParams(deltaPrime, ballFactor float64) Params {
	return Params{
		DeltaPrime:   deltaPrime,
		YBallFactor:  ballFactor,
		YScaleFactor: 0.25,
	}
}

// Construction is the shared substrate of Theorems 3.2, 3.4 and B.1: the
// radii r_ui, the packings F_i, the nested nets G_j, the X- and Y-neighbor
// sets and the zooming sequences f_ui.
type Construction struct {
	Idx metric.BallIndex
	// Params is the ring geometry in effect.
	Params Params
	// DeltaPrime mirrors Params.DeltaPrime.
	DeltaPrime float64
	// IMax is the deepest level: i ranges over 0..IMax with IMax =
	// floor(log2 n).
	IMax int
	// R[u][i] = r_ui; R[u][0] is uniformized to the diameter.
	R [][]float64
	// Packings[i] is the (2^-i, µ)-packing F_i under the counting measure.
	Packings []*packing.Packing
	// Nets is the ascending view (G_j is a ~2^j-scale net, nested).
	Nets nets.Ascending
	// X[u][i] and Y[u][i] are the sorted X_i- and Y_i-neighbor node ids.
	X, Y [][][]int
	// Zoom[u][i] = f_ui: the net point of G_(l(u,i)) within r_ui/4 of u,
	// where l(u,i) = JForScale(r_ui/4). Zoom[u][i] may equal u.
	Zoom [][]int
	// Timings records how long each build phase took.
	Timings Timings
}

// Timings is the per-phase wall-clock breakdown of a construction build
// (the substrate phases of oracle.BuildStats).
type Timings struct {
	// Nets covers the sampler and nested net hierarchy.
	Nets time.Duration
	// Radii covers the r_ui table.
	Radii time.Duration
	// Packings covers every F_i.
	Packings time.Duration
	// Rings covers the X/Y/Zoom fills.
	Rings time.Duration
}

// NewConstruction builds the shared substrate with internal parameter
// deltaPrime ∈ (0, 1/2) and the paper's ring constants.
func NewConstruction(idx metric.BallIndex, deltaPrime float64) (*Construction, error) {
	return NewConstructionParams(idx, DefaultParams(deltaPrime))
}

// NewConstructionParams builds the shared substrate with explicit ring
// geometry.
func NewConstructionParams(idx metric.BallIndex, params Params) (*Construction, error) {
	deltaPrime := params.DeltaPrime
	if deltaPrime <= 0 || deltaPrime >= 0.5 {
		return nil, fmt.Errorf("triangulation: deltaPrime = %v, want (0, 0.5)", deltaPrime)
	}
	if params.YBallFactor <= 0 || params.YScaleFactor <= 0 {
		return nil, fmt.Errorf("triangulation: non-positive ring factors %+v", params)
	}
	if params.YBallFactor < 1 {
		return nil, fmt.Errorf("triangulation: Y-ring reach %v < 1 does not cover the diameter r_u0, "+
			"so the level-0 host prefix is not shared and lower <= d fails", params.YBallFactor)
	}
	n := idx.N()
	if n < 2 {
		return nil, fmt.Errorf("triangulation: need at least 2 nodes, got %d", n)
	}
	refN := params.RefN
	if refN <= 0 {
		refN = n
	}
	start := time.Now()
	smp, err := measure.NewSampler(idx, measure.CountingScaled(n, refN))
	if err != nil {
		return nil, err
	}
	h, err := nets.NewHierarchyOrdered(idx, nets.LabelingScales(idx), params.StableOrder)
	if err != nil {
		return nil, fmt.Errorf("triangulation: nets: %w", err)
	}
	c := &Construction{
		Idx:        idx,
		Params:     params,
		DeltaPrime: deltaPrime,
		IMax:       int(math.Floor(math.Log2(float64(refN)))),
		Nets:       nets.Ascending{H: h},
	}
	workers := params.Workers
	c.Timings.Nets = time.Since(start)

	// Radii r_ui, with the level-0 uniformization. The level-i ball must
	// hold ceil(2^-i * refN) nodes — with the default refN = n this is
	// exactly r_u(2^-i) under the counting measure; a pinned refN keeps
	// the count thresholds fixed under churn and snaps the result to the
	// scale ladder (see Params.RefN).
	start = time.Now()
	quantum := 0.0
	if params.RefN > 0 {
		quantum = h.Scale(h.NumLevels() - 1) // finest net scale
	}
	diam := idx.Diameter()
	c.R = make([][]float64, n)
	par.For(workers, n, func(u int) {
		row := make([]float64, c.IMax+1)
		row[0] = packing.QuantizeUp(diam, quantum)
		for i := 1; i <= c.IMax; i++ {
			k := int(math.Ceil(math.Pow(2, -float64(i)) * float64(refN)))
			row[i] = packing.QuantizeUp(idx.RadiusForCount(u, k), quantum)
		}
		c.R[u] = row
	})
	c.Timings.Radii = time.Since(start)

	// Packings F_i (each level parallel across nodes internally).
	start = time.Now()
	var rank []int
	if params.StableOrder != nil {
		rank = make([]int, n)
		for pos, u := range params.StableOrder {
			rank[u] = pos
		}
	}
	c.Packings = make([]*packing.Packing, c.IMax+1)
	for i := 0; i <= c.IMax; i++ {
		p, err := packing.NewWithOptions(idx, smp, math.Pow(2, -float64(i)), packing.Options{
			Workers: workers,
			Quantum: quantum,
			Nets:    c.Nets,
			Rank:    rank,
		})
		if err != nil {
			return nil, fmt.Errorf("triangulation: packing F_%d: %w", i, err)
		}
		c.Packings[i] = p
	}
	c.Timings.Packings = time.Since(start)

	// X-, Y-neighbors and zooming sequences.
	start = time.Now()
	c.X = make([][][]int, n)
	c.Y = make([][][]int, n)
	c.Zoom = make([][]int, n)
	par.For(workers, n, func(u int) {
		c.X[u] = make([][]int, c.IMax+1)
		c.Y[u] = make([][]int, c.IMax+1)
		c.Zoom[u] = make([]int, c.IMax+1)
	})
	c.fillXNeighbors(workers)
	type yScratch struct {
		buf []int
	}
	scr := make([]yScratch, par.Workers(workers, n))
	par.ForWorker(workers, n, func(w, u int) {
		s := &scr[w]
		for i := 0; i <= c.IMax; i++ {
			c.Y[u][i] = c.yNeighborsWith(u, i, &s.buf)
			c.Zoom[u][i] = c.zoomPoint(u, i)
		}
	})
	c.Timings.Rings = time.Since(start)
	return c, nil
}

// Rebase moves the construction, its net hierarchy included, onto idx,
// another index over the same space; nothing built so far changes. The
// construction's own build is the last reader of whole sorted rows (the
// Z-sets and labels read distances), so a caller that builds on over a
// LazyIndex lets the eager rows go.
func (c *Construction) Rebase(idx metric.BallIndex) {
	c.Idx = idx
	c.Nets = nets.Ascending{H: c.Nets.H.Over(idx)}
}

// fillXNeighbors computes every X_ui by inverting the scan: instead of
// testing all packing balls against every node u (O(n·|F_i|) Dist calls
// per level), each packing ball enumerates one index ball around its
// center and marks the nodes it qualifies for. The membership test
// d(u,c) + radius <= r_(u,i-1) is unchanged — the enumeration radius
// max_u r_(u,i-1) is a superset cutoff (fl(d+radius) >= d for radius
// >= 0, so no qualifying node can sit outside it) — which keeps the
// result bit-identical to the direct scan while reusing the sorted
// rows' precomputed distances.
func (c *Construction) fillXNeighbors(workers int) {
	n := c.Idx.N()
	counts := make([]int32, n)
	for i := 0; i <= c.IMax; i++ {
		balls := c.Packings[i].Balls
		// The enumeration cutoff: the loosest bound any node applies at
		// this level (+Inf at level 0, the uniform diameter at level 1).
		maxBound := 0.0
		if i == 0 {
			maxBound = math.Inf(1)
		} else {
			for u := 0; u < n; u++ {
				if r := c.R[u][i-1]; r > maxBound {
					maxBound = r
				}
			}
		}
		// Per-ball qualifier lists, in parallel: ball bi qualifies for
		// node u when u's own bound admits it.
		qual := make([][]int32, len(balls))
		par.For(workers, len(balls), func(bi int) {
			b := &balls[bi]
			var q []int32
			for _, nb := range c.Idx.Ball(b.Center, maxBound) {
				if nb.Dist+b.Radius <= c.prevR(nb.Node, i) {
					q = append(q, int32(nb.Node))
				}
			}
			qual[bi] = q
		})
		// Transpose into per-node center lists. Scanning balls in
		// ascending center order makes every X_ui come out sorted without
		// a per-node sort; one arena holds the whole level.
		order := make([]int, len(balls))
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return balls[order[a]].Center < balls[order[b]].Center })
		total := 0
		for u := range counts {
			counts[u] = 0
		}
		for _, q := range qual {
			total += len(q)
			for _, u := range q {
				counts[u]++
			}
		}
		arena := make([]int, total)
		pos := 0
		for u := 0; u < n; u++ {
			if counts[u] == 0 {
				continue // stay nil, as the direct scan would
			}
			end := pos + int(counts[u])
			c.X[u][i] = arena[pos:pos:end]
			pos = end
		}
		for _, bi := range order {
			center := balls[bi].Center
			for _, u := range qual[bi] {
				c.X[u][i] = append(c.X[u][i], center)
			}
		}
	}
}

// prevR reports r_(u,i-1), with r_(u,-1) = +Inf.
func (c *Construction) prevR(u, i int) float64 {
	if i == 0 {
		return math.Inf(1)
	}
	return c.R[u][i-1]
}

// xNeighborsScan is the direct O(|F_i|) per-node scan — the reference
// implementation fillXNeighbors inverts. Tests pin the two against each
// other.
func (c *Construction) xNeighborsScan(u, i int) []int {
	bound := c.prevR(u, i)
	var out []int
	for bi := range c.Packings[i].Balls {
		b := &c.Packings[i].Balls[bi]
		if c.Idx.Dist(u, b.Center)+b.Radius <= bound {
			out = append(out, b.Center)
		}
	}
	sort.Ints(out) // canonical order, shared across hosts for equal sets
	return out
}

// yNetIndex reports j_Y(u,i): the net level at scale YScaleFactor * r_ui
// (the paper's δ'·r_ui/4).
func (c *Construction) yNetIndex(u, i int) int {
	return c.Nets.JForScale(c.Params.YScaleFactor * c.R[u][i])
}

// yNeighborsWith computes Y_ui through a reusable scratch buffer: the
// ball walk lands in scratch, only the exact-size sorted result is
// allocated.
func (c *Construction) yNeighborsWith(u, i int, scratch *[]int) []int {
	r := c.Params.YBallFactor * c.R[u][i]
	buf := c.Nets.AppendInBall((*scratch)[:0], c.yNetIndex(u, i), u, r)
	*scratch = buf
	if len(buf) == 0 {
		return nil
	}
	out := make([]int, len(buf))
	copy(out, buf)
	sort.Ints(out)
	return out
}

func (c *Construction) zoomPoint(u, i int) int {
	l := c.Nets.JForScale(c.R[u][i] / 4)
	f, _ := c.Nets.Nearest(l, u)
	return f
}

// CriticalLevel picks the proof's level i for a pair: the smallest i with
// r_ui <= (2+δ')·d, so that r_(u,i-1) is above it.
func (c *Construction) CriticalLevel(u, v int) int {
	bound := (2 + c.DeltaPrime) * c.Idx.Dist(u, v)
	for i := 0; i <= c.IMax; i++ {
		if c.R[u][i] <= bound {
			return i
		}
	}
	return c.IMax
}

// NearestX reports the X_i-neighbor of u closest to u (the x_ti of
// Theorem B.1). ok is false when X_ui is empty (never happens for valid
// constructions: the packing covers every node at level i).
func (c *Construction) NearestX(u, i int) (node int, ok bool) {
	best, bestD := -1, math.Inf(1)
	for _, w := range c.X[u][i] {
		if d := c.Idx.Dist(u, w); d < bestD {
			best, bestD = w, d
		}
	}
	return best, best >= 0
}

// MaxNeighborsPerLevel reports the realized max of |X_ui| and |Y_ui| — the
// paper's K = [O(1/δ)]^O(α) constant.
func (c *Construction) MaxNeighborsPerLevel() int {
	k := 0
	for u := range c.X {
		for i := range c.X[u] {
			if len(c.X[u][i]) > k {
				k = len(c.X[u][i])
			}
			if len(c.Y[u][i]) > k {
				k = len(c.Y[u][i])
			}
		}
	}
	return k
}

// Verify checks the structural invariants the proofs rely on:
// monotonicity of r_ui, f_ui ∈ Y_ui within r_ui/4, and Claim 3.3
// (|r_ui − r_vi| <= d_uv for i >= 1).
func (c *Construction) Verify() error {
	n := c.Idx.N()
	for u := 0; u < n; u++ {
		for i := 0; i <= c.IMax; i++ {
			if i > 0 && c.R[u][i] > c.R[u][i-1] {
				return fmt.Errorf("triangulation: r_%d,%d > r_%d,%d", u, i, u, i-1)
			}
			f := c.Zoom[u][i]
			if d := c.Idx.Dist(u, f); d > c.R[u][i]/4 {
				return fmt.Errorf("triangulation: f_(%d,%d)=%d at distance %v > r/4=%v", u, i, f, d, c.R[u][i]/4)
			}
			if !contains(c.Y[u][i], f) {
				return fmt.Errorf("triangulation: f_(%d,%d)=%d not a Y_%d-neighbor", u, i, f, i)
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := c.Idx.Dist(u, v)
			for i := 1; i <= c.IMax; i++ {
				if math.Abs(c.R[u][i]-c.R[v][i]) > d+1e-9 {
					return fmt.Errorf("triangulation: claim 3.3 violated at (%d,%d,%d)", u, v, i)
				}
			}
		}
	}
	return nil
}

func contains(sorted []int, x int) bool {
	for _, v := range sorted {
		if v == x {
			return true
		}
	}
	return false
}

// Package packing implements (eps,µ)-packings: Lemma 3.1 / Lemma A.1 of
// the paper, the substrate of the X-type neighbors in the triangulation
// (Theorem 3.2), the distance labeling (Theorem 3.4) and routing mode M2
// (Theorem B.1).
//
// An (eps,µ)-packing is a family F of disjoint balls, each of measure at
// least eps/2^O(alpha), such that for every node u some ball B_w(r) ∈ F
// satisfies d(u,w) + r <= 6*r_u(eps), where r_u(eps) is the radius of the
// smallest ball around u of measure at least eps (the strengthened form of
// Lemma A.1 used by Theorem B.1).
//
// The construction mirrors the existence proof: for each node u it either
// finds a "u-zooming" ball — a ball B_v(r) ⊆ B_u(3r_u) whose measure is a
// constant fraction of eps while µ(B_v(4r)) <= eps — by repeatedly
// covering the current ball with radius/8 balls and descending into the
// heaviest one, or it bottoms out at a single node of measure >= eps.
// A maximal disjoint subfamily of these per-node balls is the packing.
package packing

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"rings/internal/measure"
	"rings/internal/metric"
	"rings/internal/nets"
	"rings/internal/par"
)

// Ball is a member of a packing: the closed ball of the given radius
// around Center, with its node set materialized in ascending distance
// order from the center.
type Ball struct {
	Center int
	Radius float64
	Nodes  []int
	Mass   float64
}

// Contains reports whether node v lies in the ball.
func (b *Ball) Contains(idx metric.BallIndex, v int) bool {
	return idx.Dist(b.Center, v) <= b.Radius
}

// Packing is an (Eps, µ)-packing over an indexed metric space.
type Packing struct {
	Eps   float64
	Balls []Ball
	// CoverFor[u] is the index into Balls of a ball B_w(r) with
	// d(u,w) + r <= 6*r_u(eps) (the Lemma A.1 guarantee).
	CoverFor []int
	// RadiusAt[u] caches r_u(eps).
	RadiusAt []float64
}

// New builds an (eps,µ)-packing with a GOMAXPROCS worker pool.
func New(idx metric.BallIndex, smp *measure.Sampler, eps float64) (*Packing, error) {
	return NewParallel(idx, smp, eps, 0)
}

// NewParallel builds an (eps,µ)-packing; eps must lie in (0, 1]. The
// per-node phases (radius fill, candidate-ball descent, cover location)
// run across workers goroutines (0 = GOMAXPROCS); the maximal-disjoint
// selection stays sequential because its scan order is load-bearing, so
// the result is identical for every worker count.
func NewParallel(idx metric.BallIndex, smp *measure.Sampler, eps float64, workers int) (*Packing, error) {
	return NewParallelQuantized(idx, smp, eps, workers, 0)
}

// Options tunes NewWithOptions beyond the defaults.
type Options struct {
	// Workers bounds build parallelism (0 = GOMAXPROCS).
	Workers int
	// Quantum, when positive, snaps the per-node radius starts r_u(eps)
	// up to the ladder {Quantum * 2^k} and switches the candidate
	// descent to churn-stable mode. The raw r_u(eps) is the distance to
	// a mass quantile and moves whenever any node enters or leaves the
	// ball, which would re-seed the candidate descent — and hence drift
	// the whole packing — on every membership change; the quantized
	// start moves only across power-of-two boundaries. Coverage only
	// improves (budgets derive from the same, never-smaller, radii).
	Quantum float64
	// Nets, required when Quantum > 0, supplies stable sub-ball centers
	// for the candidate descent: the heaviest-cover step argmaxes over
	// net points at scale <= rho/8 instead of greedily sub-covering the
	// raw ball membership. Raw members reshuffle the greedy cover
	// whenever anyone joins a coarse ball; net points move only when
	// the greedy net itself changes, which membership churn perturbs
	// only locally. The existence argument is unchanged: the net points
	// within (9/8)rho cover B_center(rho) with rho/8-balls, so the
	// heaviest still carries an eps/2^O(alpha) share.
	Nets nets.Ascending
	// Rank, when non-nil, replaces the node id as the tie-break key of
	// the maximal-disjoint selection scan (rank[u] must be a permutation
	// key). Quantized radii tie constantly — they live on a power-of-two
	// ladder — so the scan order is dominated by the tie-break; keying
	// it on a churn-stable rank (the churn engine passes base-id ranks)
	// keeps internal-id renames from reshuffling the scan and cascading
	// the selection globally.
	Rank []int
}

// NewParallelQuantized builds an (eps,µ)-packing in churn-stable mode
// when quantum > 0 (hier supplies the stable centers); quantum 0
// recovers NewParallel exactly.
func NewParallelQuantized(idx metric.BallIndex, smp *measure.Sampler, eps float64, workers int, quantum float64, hier ...nets.Ascending) (*Packing, error) {
	opts := Options{Workers: workers, Quantum: quantum}
	if len(hier) > 0 {
		opts.Nets = hier[0]
	}
	return NewWithOptions(idx, smp, eps, opts)
}

// NewWithOptions builds an (eps,µ)-packing; eps must lie in (0, 1].
func NewWithOptions(idx metric.BallIndex, smp *measure.Sampler, eps float64, opts Options) (*Packing, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("packing: eps = %v, want (0,1]", eps)
	}
	if opts.Quantum > 0 && opts.Nets.H == nil {
		return nil, fmt.Errorf("packing: quantized mode needs a net hierarchy")
	}
	workers := opts.Workers
	n := idx.N()
	radiusAt := make([]float64, n)
	par.For(workers, n, func(u int) {
		radiusAt[u] = QuantizeUp(smp.RadiusForMass(u, eps), opts.Quantum)
	})

	// Per-node candidate balls, with one covered-mark scratch per worker.
	// Stable mode memoizes descent suffixes: after the first hop every
	// descent state is (net point, ladder radius), shared by all the
	// nodes whose descents pass through it, so the per-level candidate
	// phase costs roughly one descent per net point instead of one per
	// node. Racing workers compute identical balls (the descent is
	// deterministic), so last-write-wins publication is sound.
	candidates := make([]Ball, n)
	scratch := make([]coverMarks, par.Workers(workers, n))
	if opts.Quantum > 0 {
		stableCandidates(idx, smp, eps, opts, workers, radiusAt, candidates)
	} else {
		par.ForWorker(workers, n, func(w, u int) {
			candidates[u] = candidateBall(idx, smp, u, radiusAt[u], eps, &scratch[w])
		})
	}

	// Maximal disjoint subfamily ("consecutively going through all
	// balls"), scanning candidates by ascending radius (ties by id for
	// determinism). The order is load-bearing for the Lemma A.1 coverage
	// bound: a candidate that is rejected must intersect an already-taken
	// ball of radius no larger than its own, which is what keeps the
	// covering ball within every rejected node's 6*r_u budget. Scanning
	// by node id instead can block a small candidate with a much larger
	// ball taken earlier whose center is outside the budget.
	p := &Packing{
		Eps:      eps,
		CoverFor: make([]int, n),
		RadiusAt: radiusAt,
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	key := func(u int) int {
		if opts.Rank != nil {
			return opts.Rank[u]
		}
		return u
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(candidates[a].Radius, candidates[b].Radius); c != 0 {
			return c
		}
		return key(a) - key(b)
	})
	// Disjointness test. The default checks node-set overlap (the
	// paper's "disjoint family" literally). Churn-stable mode uses the
	// geometric sufficient condition d(c1,c2) > r1+r2 instead: set
	// overlap depends on the exact ball membership, so one node joining
	// or leaving an earlier ball flips later taken/rejected decisions
	// and cascades the selection globally, while center distances are
	// churn-stable. Geometric disjointness implies set disjointness, and
	// rejection still produces a taken ball with d(v,w) <= r+r' and
	// r' <= r — exactly the inequality the Lemma A.1 coverage chain
	// needs — so both the packing property and the coverage proof
	// survive unchanged.
	taken := make([]bool, n) // nodes already claimed by a packing ball
	if opts.Quantum > 0 {
		// Geometric scan with singleton fast paths: most fine-level
		// candidates have radius 0, where "intersects a taken ball"
		// reduces to one mask lookup (covered = within t.Radius of a
		// taken center); positive-radius candidates check the few
		// positive-radius taken balls directly and sweep their own ball
		// for taken centers (the exact d <= r+0 test).
		covered := make([]bool, n)
		takenCenter := make([]bool, n)
		var big []Ball
		for _, u := range order {
			b := candidates[u]
			disjoint := true
			if b.Radius == 0 {
				disjoint = !covered[b.Center]
			} else {
				for bi := range big {
					t := &big[bi]
					if idx.Dist(b.Center, t.Center) <= b.Radius+t.Radius {
						disjoint = false
						break
					}
				}
				if disjoint {
					for _, nb := range idx.Ball(b.Center, b.Radius) {
						if takenCenter[nb.Node] {
							disjoint = false
							break
						}
					}
				}
			}
			if !disjoint {
				continue
			}
			takenCenter[b.Center] = true
			for _, nb := range idx.Ball(b.Center, b.Radius) {
				covered[nb.Node] = true
			}
			if b.Radius > 0 {
				big = append(big, b)
			}
			p.Balls = append(p.Balls, b)
		}
	} else {
		for _, u := range order {
			b := candidates[u]
			disjoint := true
			for _, v := range b.Nodes {
				if taken[v] {
					disjoint = false
					break
				}
			}
			if !disjoint {
				continue
			}
			for _, v := range b.Nodes {
				taken[v] = true
			}
			p.Balls = append(p.Balls, b)
		}
	}

	// Locate, for every node, a packing ball within the A.1 budget: the
	// first ball in selection order that fits. Every fitting ball's
	// center lies inside B_u(budget), so sweeping that ball and taking
	// the minimum ball index among fitting centers returns exactly what
	// the linear scan would — in O(|B_u(budget)|) instead of O(|F|),
	// which is what keeps the fine levels (|F| ~ n) from going
	// quadratic. Whichever enumeration is smaller wins.
	centerIdx := make([]int32, n)
	for i := range centerIdx {
		centerIdx[i] = -1
	}
	for i := range p.Balls {
		centerIdx[p.Balls[i].Center] = int32(i)
	}
	par.For(workers, n, func(u int) {
		p.CoverFor[u] = -1
		budget := 6 * radiusAt[u]
		if len(p.Balls) <= idx.BallCount(u, budget) {
			for i := range p.Balls {
				b := &p.Balls[i]
				if idx.Dist(u, b.Center)+b.Radius <= budget {
					p.CoverFor[u] = i
					break
				}
			}
			return
		}
		best := int32(-1)
		for _, nb := range idx.Ball(u, budget) {
			i := centerIdx[nb.Node]
			if i < 0 || (best >= 0 && i >= best) {
				continue
			}
			if nb.Dist+p.Balls[i].Radius <= budget {
				best = i
			}
		}
		if best >= 0 {
			p.CoverFor[u] = int(best)
		}
	})
	for u := 0; u < n; u++ {
		if p.CoverFor[u] < 0 {
			return nil, fmt.Errorf("packing: no ball within 6*r_u for node %d (eps=%v)", u, eps)
		}
	}
	return p, nil
}

// QuantizeUp snaps r up to the ladder {quantum * 2^k}: the smallest
// ladder value >= r (zero/negative r, or quantum 0 = disabled, pass
// through). It is the one radius-quantization rule of the churn-stable
// profile — the packing's radius starts and the construction's r_ui
// table must round identically or the shared-ladder assumption breaks.
func QuantizeUp(r, quantum float64) float64 {
	if r <= 0 || quantum <= 0 {
		return r
	}
	e := math.Ceil(math.Log2(r / quantum))
	p := quantum * math.Pow(2, e)
	for p < r { // float guard: the ladder value must not undercut r
		p *= 2
	}
	return p
}

// descentKey identifies a memoizable descent state: the current center
// and the radius as a ladder exponent (rho = quantum * 2^exp; exact
// because stable-mode radii live on the ladder and only ever halve).
type descentKey struct {
	center int
	exp    int32
}

// stableCandidates fills the candidate balls in churn-stable mode (see
// Options.Nets). The quantized radii take only a handful of distinct
// ladder values, so the nodes are grouped by radius exponent: each
// group precomputes one mass per net point (instead of one binary
// search per (node, net point) pair), every node's first hop is then an
// O(1)-lookup argmax, and the descent after the first hop — a function
// of (net point, ladder radius) alone — is memoized across the whole
// level. Identical results to the per-node descent, at roughly one
// descent per net point instead of one per node.
func stableCandidates(idx metric.BallIndex, smp *measure.Sampler, eps float64, opts Options, workers int, radiusAt []float64, candidates []Ball) {
	n := idx.N()
	minD := idx.MinDistance()
	expFor := func(rho float64) int32 {
		return int32(math.Round(math.Log2(rho / opts.Quantum)))
	}
	var memo sync.Map // descentKey -> Ball
	var outcome func(v int, rho float64) Ball
	outcome = func(v int, rho float64) Ball {
		key := descentKey{center: v, exp: expFor(rho)}
		if b, ok := memo.Load(key); ok {
			return b.(Ball)
		}
		var out Ball
		switch {
		case smp.BallMass(v, rho/2) <= eps:
			out = makeBall(idx, smp, v, rho/8)
		case rho/2 < minD:
			out = makeBall(idx, smp, v, 0)
		default:
			out = outcome(heaviestNetBall(idx, smp, opts.Nets, v, rho/2), rho/2)
		}
		memo.Store(key, out)
		return out
	}

	type group struct {
		rho   float64
		nodes []int
	}
	byExp := map[int32]*group{}
	var exps []int32
	for u := 0; u < n; u++ {
		ru := radiusAt[u]
		if ru == 0 || ru < minD {
			candidates[u] = makeBall(idx, smp, u, 0)
			continue
		}
		e := expFor(ru)
		g := byExp[e]
		if g == nil {
			g = &group{rho: ru}
			byExp[e] = g
			exps = append(exps, e)
		}
		g.nodes = append(g.nodes, u)
	}
	masses := make([]float64, n)
	for _, e := range exps {
		g := byExp[e]
		rho := g.rho
		j := opts.Nets.JForScale(rho / 8)
		members := opts.Nets.Members(j)
		mask := opts.Nets.Mask(j)
		for _, v := range members {
			masses[v] = smp.BallMass(v, rho/8)
		}
		r := rho * 9 / 8
		par.For(workers, len(g.nodes), func(k int) {
			u := g.nodes[k]
			best, bestMass := -1, -1.0
			consider := func(v int) {
				if m := masses[v]; m > bestMass || (m == bestMass && v < best) {
					best, bestMass = v, m
				}
			}
			if len(members) <= idx.BallCount(u, r) {
				for _, v := range members {
					if idx.Dist(u, v) <= r {
						consider(v)
					}
				}
			} else {
				for _, nb := range idx.Ball(u, r) {
					if mask[nb.Node] {
						consider(nb.Node)
					}
				}
			}
			v := u
			if best >= 0 {
				v = best
			}
			candidates[u] = outcome(v, rho)
		})
	}
}

// heaviestNetBall returns the net point at scale <= rho/8 within
// (9/8)rho of center whose rho/8-ball is heaviest, ties toward the
// smaller node id (an enumeration-order-independent rule, so the two
// candidate scans below agree bit for bit). Coverage of the whole
// space by the net guarantees at least one candidate (the net point
// within rho/8 of center itself).
func heaviestNetBall(idx metric.BallIndex, smp *measure.Sampler, h nets.Ascending, center int, rho float64) int {
	j := h.JForScale(rho / 8)
	r := rho * 9 / 8
	best, bestMass := -1, -1.0
	consider := func(v int) {
		m := smp.BallMass(v, rho/8)
		if m > bestMass || (m == bestMass && v < best) {
			best, bestMass = v, m
		}
	}
	// Walk whichever enumeration is smaller: at coarse rho the ball
	// holds most of the space while the scale-(rho/8) net is a handful
	// of points; at fine rho it is the reverse.
	if lvl := h.Members(j); len(lvl) <= idx.BallCount(center, r) {
		for _, v := range lvl {
			if idx.Dist(center, v) <= r {
				consider(v)
			}
		}
	} else {
		mask := h.Mask(j)
		for _, nb := range idx.Ball(center, r) {
			if mask[nb.Node] {
				consider(nb.Node)
			}
		}
	}
	if best < 0 {
		return center
	}
	return best
}

// candidateBall finds either a u-zooming ball or a heavy singleton, per
// the Lemma A.1 existence argument.
func candidateBall(idx metric.BallIndex, smp *measure.Sampler, u int, ru, eps float64, covered *coverMarks) Ball {
	center, rho := u, ru
	if rho == 0 {
		// u alone already has measure >= eps.
		return makeBall(idx, smp, u, 0)
	}
	minD := idx.MinDistance()
	// Invariant: µ(B_center(rho)) >= eps. Each round either certifies a
	// zooming ball of radius rho/8 or halves rho, so the loop terminates
	// in O(log aspect) rounds at a singleton of measure >= eps.
	for rho >= minD {
		v := heaviestCoverBall(idx, smp, center, rho, covered)
		if smp.BallMass(v, rho/2) <= eps {
			return makeBall(idx, smp, v, rho/8)
		}
		center, rho = v, rho/2
	}
	return makeBall(idx, smp, center, 0)
}

// coverMarks is one worker's covered-node scratch for heaviestCoverBall:
// node v is covered in the current call when stamp[v] == gen, so a call
// starts with one increment instead of clearing what the last one
// marked, and marking a node is one store.
type coverMarks struct {
	stamp []uint32
	gen   uint32
}

// reset starts a new generation over the universe [0, n).
func (m *coverMarks) reset(n int) {
	if len(m.stamp) < n {
		m.stamp = make([]uint32, n)
		m.gen = 0
	}
	m.gen++
	if m.gen == 0 { // wrapped: stale stamps could read as current
		clear(m.stamp)
		m.gen = 1
	}
}

// heaviestCoverBall greedily covers B_center(rho) with balls of radius
// rho/8 centered at its members and returns the center whose rho/8-ball is
// heaviest.
func heaviestCoverBall(idx metric.BallIndex, smp *measure.Sampler, center int, rho float64, covered *coverMarks) int {
	sub := rho / 8
	ball := idx.Ball(center, rho)
	covered.reset(idx.N())
	stamp, gen := covered.stamp, covered.gen
	best, bestMass := center, -1.0
	for _, nb := range ball {
		if stamp[nb.Node] == gen {
			continue
		}
		for _, other := range idx.Ball(nb.Node, sub) {
			stamp[other.Node] = gen
		}
		if m := smp.BallMass(nb.Node, sub); m > bestMass {
			best, bestMass = nb.Node, m
		}
	}
	return best
}

func makeBall(idx metric.BallIndex, smp *measure.Sampler, center int, radius float64) Ball {
	nbs := idx.Ball(center, radius)
	nodes := make([]int, len(nbs))
	for i, nb := range nbs {
		nodes[i] = nb.Node
	}
	return Ball{Center: center, Radius: radius, Nodes: nodes, Mass: smp.BallMass(center, radius)}
}

// MinMass reports the smallest ball mass in the packing, as a fraction of
// Eps — the realized 1/2^O(alpha) constant of Lemma 3.1.
func (p *Packing) MinMass() float64 {
	min := math.Inf(1)
	for i := range p.Balls {
		if f := p.Balls[i].Mass / p.Eps; f < min {
			min = f
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// Verify checks the packing invariants: pairwise disjoint node sets,
// positive mass, and the Lemma A.1 coverage property for every node.
func (p *Packing) Verify(idx metric.BallIndex) error {
	seen := make(map[int]int)
	for i := range p.Balls {
		b := &p.Balls[i]
		if b.Mass <= 0 {
			return fmt.Errorf("packing: ball %d has mass %v", i, b.Mass)
		}
		for _, v := range b.Nodes {
			if prev, dup := seen[v]; dup {
				return fmt.Errorf("packing: node %d in balls %d and %d", v, prev, i)
			}
			seen[v] = i
		}
	}
	for u := 0; u < idx.N(); u++ {
		i := p.CoverFor[u]
		if i < 0 || i >= len(p.Balls) {
			return fmt.Errorf("packing: node %d has invalid cover index %d", u, i)
		}
		b := &p.Balls[i]
		if idx.Dist(u, b.Center)+b.Radius > 6*p.RadiusAt[u]+1e-12 {
			return fmt.Errorf("packing: cover ball for node %d exceeds 6*r_u", u)
		}
	}
	return nil
}

// Package nnsearch implements Meridian-style nearest-neighbor and
// multi-range queries over rings of neighbors — the application the paper
// closes with (Section 6: "rings of neighbors can be used in a
// distributed system as a layer that supports various applications ...
// practically in Meridian (Wong et al. [57]), a system for
// nearest-neighbor and multi-range queries in a peer-to-peer network").
//
// The setting: only a subset of nodes are overlay members (servers); a
// query names an arbitrary node t (a client) and asks for the member
// closest to t. Every member keeps concentric rings of member-pointers
// (radii growing geometrically, a bounded number of members retained per
// ring — Meridian's ring membership structure). A query at member u
// measures d = d(u, t), polls its ring members within the Meridian
// latency band (up to 3d/2 away), forwards to the one closest to t, and
// stops at a ring-local optimum.
//
// On doubling metrics the ring structure guarantees geometric progress,
// so queries finish in O(log ∆) hops — the same multi-scale argument as
// the paper's Theorem 5.5 — and land on a member whose distance to t is
// within a constant factor of optimal (exactly optimal when rings are
// dense enough; tests measure both).
package nnsearch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rings/internal/intset"
	"rings/internal/metric"
)

// Config tunes the overlay.
type Config struct {
	// RingBase is the geometric growth factor of ring radii (Meridian
	// uses 2).
	RingBase float64
	// PerRing bounds how many members a node retains per ring.
	PerRing int
	// Seed drives ring-member sampling.
	Seed int64
}

// DefaultConfig mirrors Meridian's published ring constants.
func DefaultConfig(seed int64) Config {
	return Config{RingBase: 2, PerRing: 8, Seed: seed}
}

// Overlay is the ring structure over a member subset of a metric space.
type Overlay struct {
	idx     metric.BallIndex
	cfg     Config
	members []int
	// rings[m] lists member m's retained ring members (all rings merged;
	// ring geometry is re-derived from distances at query time, which is
	// what Meridian's ring maintenance converges to).
	rings map[int][]int
}

// New builds the overlay. members must be non-empty; duplicates are
// dropped.
func New(idx metric.BallIndex, members []int, cfg Config) (*Overlay, error) {
	if cfg.RingBase <= 1 || cfg.PerRing < 1 {
		return nil, fmt.Errorf("nnsearch: invalid config %+v", cfg)
	}
	var uniq intset.Set
	uniq.Reset(idx.N())
	for _, m := range members {
		if m < 0 || m >= idx.N() {
			return nil, fmt.Errorf("nnsearch: member %d out of range", m)
		}
		uniq.Add(m)
	}
	if uniq.Len() == 0 {
		return nil, fmt.Errorf("nnsearch: no members")
	}
	o := &Overlay{idx: idx, cfg: cfg, rings: make(map[int][]int, uniq.Len())}
	o.members = uniq.Sorted()
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, m := range o.members {
		o.rings[m] = o.sampleRings(m, rng)
	}
	return o, nil
}

// sampleRings retains up to PerRing members per geometric annulus
// around m.
func (o *Overlay) sampleRings(m int, rng *rand.Rand) []int {
	// Bucket fellow members by ring index — in a slice, not a map: the
	// buckets draw from the shared seeded rng in index order.
	var buckets [][]int
	dmin := o.idx.MinDistance()
	for _, v := range o.members {
		if v == m {
			continue
		}
		d := o.idx.Dist(m, v)
		ring := 0
		if d > dmin {
			ring = int(math.Floor(math.Log(d/dmin)/math.Log(o.cfg.RingBase))) + 1
		}
		for ring >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[ring] = append(buckets[ring], v)
	}
	var out []int
	for _, bucket := range buckets {
		if len(bucket) <= o.cfg.PerRing {
			out = append(out, bucket...)
			continue
		}
		perm := rng.Perm(len(bucket))
		for _, i := range perm[:o.cfg.PerRing] {
			out = append(out, bucket[i])
		}
	}
	sort.Ints(out)
	return out
}

// Members returns the sorted member set (shared; do not modify).
func (o *Overlay) Members() []int { return o.members }

// Ring returns member m's retained pointers (shared; do not modify).
func (o *Overlay) Ring(m int) []int { return o.rings[m] }

// MaxRingSize reports the largest per-member pointer count.
func (o *Overlay) MaxRingSize() int {
	max := 0
	for _, r := range o.rings {
		if len(r) > max {
			max = len(r)
		}
	}
	return max
}

// Result describes one nearest-member query.
type Result struct {
	// Member is the member the search settled on.
	Member int
	// Dist is d(Member, target).
	Dist float64
	// Hops counts forwarding steps between members.
	Hops int
	// Path lists the members visited, starting at the entry point.
	Path []int
}

// NearestMember runs the Meridian climb from the given entry member
// toward target (any node of the metric). Every step consults only the
// current member's rings — the strongly local discipline of the paper.
func (o *Overlay) NearestMember(entry, target, maxHops int) (Result, error) {
	if _, ok := o.rings[entry]; !ok {
		return Result{}, fmt.Errorf("nnsearch: entry %d is not a member", entry)
	}
	cur := entry
	res := Result{Member: cur, Dist: o.idx.Dist(cur, target), Path: []int{cur}}
	for {
		if res.Hops >= maxHops {
			return res, fmt.Errorf("nnsearch: query toward %d exceeded %d hops", target, maxHops)
		}
		d := o.idx.Dist(cur, target)
		if d == 0 {
			return res, nil
		}
		// Poll ring members within the acceptance band (at most 3d/2 from
		// the current member — Meridian's latency-band probe) and pick
		// the one closest to the target.
		best, bestD := -1, d
		for _, v := range o.rings[cur] {
			dv := o.idx.Dist(cur, v)
			if dv > 3*d/2 {
				continue
			}
			if dvt := o.idx.Dist(v, target); dvt < bestD {
				best, bestD = v, dvt
			}
		}
		if best < 0 {
			// Ring-local optimum: no polled member is strictly closer.
			return res, nil
		}
		// Halving-factor improvements give the O(log ∆) hop bound on
		// doubling metrics; weaker strict improvements are also taken
		// (the climb still terminates — the distance strictly decreases
		// over a finite member set — and they let queries settle
		// exactly).
		cur = best
		res.Hops++
		res.Path = append(res.Path, cur)
		res.Member, res.Dist = cur, bestD
	}
}

// TrueNearest reports the genuinely closest member to target, for
// accuracy accounting.
func (o *Overlay) TrueNearest(target int) (member int, dist float64) {
	best, bestD := -1, math.Inf(1)
	for _, m := range o.members {
		if d := o.idx.Dist(m, target); d < bestD {
			best, bestD = m, d
		}
	}
	return best, bestD
}

// MultiRange reports every member within radius r of target, found by
// climbing to the nearest member and then flooding outward along rings
// while progress stays inside 2r — Meridian's multi-range query pattern.
func (o *Overlay) MultiRange(entry, target int, r float64, maxHops int) ([]int, error) {
	res, err := o.NearestMember(entry, target, maxHops)
	if err != nil {
		return nil, err
	}
	// Scratch sets live in the member universe (ids remapped through the
	// sorted member list), not the node universe: per query that is one
	// |members|-sized allocation each instead of O(n). (Not pooled
	// per-Overlay: MultiRange must stay safe for concurrent callers, and
	// a pool's mutex would serialize them for a small win.)
	mi := func(id int) int { return sort.SearchInts(o.members, id) }
	var seen, visited intset.Set
	seen.Reset(len(o.members))
	visited.Reset(len(o.members))
	var out []int
	stack := []int{res.Member}
	visited.Add(mi(res.Member))
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if o.idx.Dist(m, target) <= r && seen.Add(mi(m)) {
			out = append(out, m)
		}
		if o.idx.Dist(m, target) > 2*r {
			continue // too far to contribute new in-range members
		}
		for _, v := range o.rings[m] {
			if vi := mi(v); !visited.Has(vi) && o.idx.Dist(v, target) <= 2*r {
				visited.Add(vi)
				stack = append(stack, v)
			}
		}
	}
	sort.Ints(out)
	return out, nil
}

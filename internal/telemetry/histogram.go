package telemetry

import (
	"math"
	"sync/atomic"
	"unsafe"

	"rings/internal/stats"
)

// histStripes spreads each histogram's cells over several stripes
// (power of two for slotHint). One shared cell set would re-serialize
// exactly the traffic the sharded engine keeps lock-free: every Observe
// on every core would bounce the same cache lines. Stripe choice hashes
// a caller stack address, so two goroutines on different cores almost
// always land in different stripes with zero coordination.
const histStripes = 8

// histStripe is one stripe's cells: per-bucket counts plus the stripe's
// sum (float64 bits updated by CAS). There is no separate observation
// count: it is the sum of the buckets, so a scrape racing an Observe can
// never show a _count that disagrees with the +Inf bucket.
type histStripe struct {
	buckets []atomic.Int64
	sumBits atomic.Uint64
	_       [32]byte // keep adjacent stripes' hot words off one cache line
}

// Histogram is a fixed-bucket log2 histogram whose Observe is
// allocation-free and lock-free. Bucket i (0-based) counts observations
// v with v <= 2^(minExp+i); one overflow bucket catches the rest.
// Non-positive observations land in bucket 0 (they still count and sum),
// NaN is dropped. The layout is fixed at registration — Observe never
// allocates, resizes, or locks.
type Histogram struct {
	minExp  int
	nb      int // finite buckets; buckets slice holds nb+1 (overflow last)
	stripes [histStripes]histStripe
}

// NewHistogram creates a histogram with upper bounds
// 2^minExp, 2^(minExp+1), ..., 2^maxExp and an overflow bucket.
// maxExp must be >= minExp.
func NewHistogram(minExp, maxExp int) *Histogram {
	if maxExp < minExp {
		maxExp = minExp
	}
	h := &Histogram{minExp: minExp, nb: maxExp - minExp + 1}
	for s := range h.stripes {
		h.stripes[s].buckets = make([]atomic.Int64, h.nb+1)
	}
	return h
}

// bucketOf maps an observation to its bucket index: the smallest e with
// 2^e >= v, offset and clamped into the layout.
//
//ringvet:hotpath
func (h *Histogram) bucketOf(v float64) int {
	if !(v > 0) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if frac == 0.5 {
		exp-- // exact power of two sits on its own bound
	}
	i := exp - h.minExp
	switch {
	case i < 0:
		return 0
	case i >= h.nb:
		return h.nb // overflow
	default:
		return i
	}
}

// Observe records one observation. It performs no allocation and takes
// no lock: one stripe pick, one atomic add, one CAS loop on the sum.
//
//ringvet:hotpath
func (h *Histogram) Observe(v float64) {
	if v != v { // NaN would poison the sum
		return
	}
	st := &h.stripes[slotHint(histStripes)]
	st.buckets[h.bucketOf(v)].Add(1)
	for {
		old := st.sumBits.Load()
		if st.sumBits.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is one consistent-enough read of a histogram: per
// bucket upper bounds and cumulative counts, total count (always the
// last cumulative count) and sum. Concurrent observes may skew count vs
// sum by in-flight observations (standard for scrape-time metric reads).
type HistogramSnapshot struct {
	UpperBounds []float64 // finite bounds; the overflow bucket is +Inf
	Cumulative  []int64   // cumulative counts per finite bound, then total
	Count       int64
	Sum         float64
}

// Snapshot folds the stripes into cumulative bucket counts (exposition
// form: le-labeled cumulative counters plus _count and _sum).
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		UpperBounds: make([]float64, h.nb),
		Cumulative:  make([]int64, h.nb+1),
	}
	raw := make([]int64, h.nb+1)
	for s := range h.stripes {
		st := &h.stripes[s]
		for i := range raw {
			raw[i] += st.buckets[i].Load()
		}
		snap.Sum += bitsFloat(st.sumBits.Load())
	}
	cum := int64(0)
	for i := 0; i <= h.nb; i++ {
		cum += raw[i]
		snap.Cumulative[i] = cum
		if i < h.nb {
			snap.UpperBounds[i] = math.Ldexp(1, h.minExp+i)
		}
	}
	snap.Count = cum
	return snap
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observations:
// the bucket holding the rank-ceil(q*n) observation is located from the
// cumulative counts and the value interpolated linearly between that
// bucket's bounds, so the answer is never off by more than one log2
// bucket. The first bucket's lower bound is 0 (everything at or below
// 2^minExp shares it); a rank that falls in the overflow bucket reports
// the last finite bound, which is then a lower bound on the true value.
// An empty snapshot yields 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	} else if rank > s.Count {
		rank = s.Count
	}
	b := 0
	for s.Cumulative[b] < rank {
		b++
	}
	if b == len(s.UpperBounds) {
		return s.UpperBounds[b-1]
	}
	lo, below := 0.0, int64(0)
	if b > 0 {
		lo, below = s.UpperBounds[b-1], s.Cumulative[b-1]
	}
	frac := float64(rank-below) / float64(s.Cumulative[b]-below)
	return lo + (s.UpperBounds[b]-lo)*frac
}

// Summary condenses the snapshot into the report shape /stats serves:
// count and mean exact (from _count and _sum), p50/p95/p99 by Quantile,
// min and max the outer bounds of the lowest and highest occupied
// buckets (Quantile's conventions at both ends).
func (s HistogramSnapshot) Summary() stats.Summary {
	if s.Count == 0 {
		return stats.Summary{}
	}
	out := stats.Summary{
		Count: int(s.Count),
		Mean:  s.Sum / float64(s.Count),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Quantile(1),
	}
	// Min: the lower bound of the first occupied bucket.
	for b, c := range s.Cumulative {
		if c > 0 {
			if b > 0 {
				out.Min = s.UpperBounds[b-1]
			}
			break
		}
	}
	return out
}

// Count reports the total observation count (the sum of the buckets).
func (h *Histogram) Count() int64 { return h.Snapshot().Count }

// Sum reports the total observation sum.
func (h *Histogram) Sum() float64 {
	var sum float64
	for s := range h.stripes {
		sum += bitsFloat(h.stripes[s].sumBits.Load())
	}
	return sum
}

//ringvet:hotpath
func floatBits(v float64) uint64 { return math.Float64bits(v) }

//ringvet:hotpath
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// slotHint spreads concurrent callers over n slots (n must be a power of
// two) without a shared atomic cursor, by hashing the address of a
// caller stack variable — goroutine stacks are distinct allocations, so
// two goroutines on different cores almost always pick different slots
// with zero coordination.
//
//ringvet:hotpath
func slotHint(n int) int {
	var p byte
	h := splitmix64(uint64(uintptr(unsafe.Pointer(&p))))
	return int(h & uint64(n-1))
}

// splitmix64 scrambles the address so slot choice is uniform.
//
//ringvet:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bucketBounds returns the (lower, upper] bounds of the bucket a value
// falls in, with the conventions Quantile documents: the first bucket
// starts at 0, the overflow bucket is reported at the last finite bound.
func bucketBounds(h *Histogram, v float64) (lo, hi float64) {
	b := h.bucketOf(v)
	if b == h.nb {
		top := math.Ldexp(1, h.minExp+h.nb-1)
		return top, top
	}
	if b > 0 {
		lo = math.Ldexp(1, h.minExp+b-1)
	}
	return lo, math.Ldexp(1, h.minExp+b)
}

// TestQuantileWithinOneBucket holds Quantile and Summary to the exact
// order statistics of seeded samples: every estimate lies inside the
// bucket that holds the true quantile, estimates are monotone in q, the
// mean is exact, and min/max bracket the sample.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int, f func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	cases := []struct {
		name    string
		samples []float64
	}{
		{"uniform", draw(5000, func() float64 { return rng.Float64() * 1000 })},
		{"log-uniform", draw(5000, func() float64 { return math.Exp2(rng.Float64() * 20) })},
		{"one-bucket", draw(300, func() float64 { return 513 + rng.Float64()*500 })},
		{"sub-unit", draw(300, func() float64 { return rng.Float64() })}, // all at or below 2^0: the first bucket
		{"overflow", draw(200, func() float64 { return math.Exp2(24 + rng.Float64()) })},
		{"mostly-overflow", append(draw(10, func() float64 { return 3 }), draw(190, func() float64 { return 1e9 })...)},
	}
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(0, 23)
			sum := 0.0
			for _, x := range tc.samples {
				h.Observe(x)
				sum += x
			}
			sorted := append([]float64(nil), tc.samples...)
			sort.Float64s(sorted)
			snap := h.Snapshot()
			prev := math.Inf(-1)
			for _, q := range qs {
				rank := int(math.Ceil(q * float64(len(sorted))))
				if rank < 1 {
					rank = 1
				}
				exact := sorted[rank-1]
				lo, hi := bucketBounds(h, exact)
				got := snap.Quantile(q)
				if got < lo || got > hi {
					t.Errorf("q=%v: estimate %v outside the bucket [%v, %v] of the exact quantile %v", q, got, lo, hi, exact)
				}
				if got < prev {
					t.Errorf("q=%v: estimate %v below the previous quantile's %v", q, got, prev)
				}
				prev = got
			}
			s := snap.Summary()
			if s.Count != len(sorted) {
				t.Errorf("count = %d, want %d", s.Count, len(sorted))
			}
			if mean := sum / float64(len(sorted)); math.Abs(s.Mean-mean) > 1e-9*mean {
				t.Errorf("mean = %v, want %v", s.Mean, mean)
			}
			minLo, _ := bucketBounds(h, sorted[0])
			_, maxHi := bucketBounds(h, sorted[len(sorted)-1])
			if s.Min != minLo || s.Max != maxHi {
				t.Errorf("min/max = %v/%v, want the outer bounds %v/%v of the occupied buckets", s.Min, s.Max, minLo, maxHi)
			}
			if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
				t.Errorf("summary out of order: %+v", s)
			}
		})
	}

	empty := NewHistogram(0, 23).Snapshot()
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if s := empty.Summary(); s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Errorf("empty summary = %+v, want the zero value", s)
	}
}

package distlabel

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"rings/internal/bitio"
)

// LabelBits measures the exact serialized size of node u's label, in
// bits, by packing it with the bitio writer:
//
//   - one distance per host neighbor (mantissa O(log 1/δ), exponent
//     O(log log ∆) bits),
//   - the zooming sequence: one shared-prefix index plus IMax virtual
//     pointers of WidthFor(MaxT) bits each,
//   - the translation maps as triples (x, y, z) with a per-level count.
//
// No global node identifiers appear anywhere — that is the whole point of
// Theorem 3.4.
func (s *Scheme) LabelBits(u int) (int, error) {
	idx := s.Cons.Idx
	codec, err := bitio.NewDistCodec(idx.MinDistance(), idx.Diameter(), s.Delta/6)
	if err != nil {
		return 0, err
	}
	lab := s.labels[u]
	hostW := bitio.WidthFor(len(lab.Dists))
	psiW := bitio.WidthFor(s.MaxT)
	var w bitio.Writer
	// Distances, in host order.
	for _, d := range lab.Dists {
		if d == 0 {
			d = idx.MinDistance() // self-neighbor slot
		}
		if err := codec.Encode(&w, d); err != nil {
			return 0, err
		}
	}
	// Zooming sequence.
	if err := w.WriteBits(uint64(lab.Zoom0), hostW); err != nil {
		return 0, err
	}
	for _, psi := range lab.ZoomPsi {
		if err := w.WriteBits(uint64(psi), psiW); err != nil {
			return 0, err
		}
	}
	// Translation maps: per level, a triple count then (x, y, z) triples.
	countW := 32
	for _, lm := range lab.Trans {
		triples := 0
		for _, entries := range lm.Lists {
			triples += len(entries)
		}
		if err := w.WriteBits(uint64(triples), countW); err != nil {
			return 0, err
		}
		for k, entries := range lm.Lists {
			x := lm.Keys[k]
			for _, e := range entries {
				if err := w.WriteBits(uint64(x), hostW); err != nil {
					return 0, err
				}
				if err := w.WriteBits(uint64(e.Y), psiW); err != nil {
					return 0, err
				}
				if err := w.WriteBits(uint64(e.Z), hostW); err != nil {
					return 0, err
				}
			}
		}
	}
	return w.Len(), nil
}

// TransBits reports the serialized size of node u's translation maps
// alone (the ζ triples with per-level counts) — the component Theorem B.1
// counts inside its mode-M1 routing tables.
func (s *Scheme) TransBits(u int) int {
	lab := s.labels[u]
	hostW := bitio.WidthFor(len(lab.Dists))
	psiW := bitio.WidthFor(s.MaxT)
	bits := 0
	for _, lm := range lab.Trans {
		bits += 32 // triple count
		for _, entries := range lm.Lists {
			bits += len(entries) * (2*hostW + psiW)
		}
	}
	return bits
}

// MaxLabelBits reports the largest label in the scheme.
func (s *Scheme) MaxLabelBits() (int, error) {
	max := 0
	for u := range s.labels {
		b, err := s.LabelBits(u)
		if err != nil {
			return 0, err
		}
		if b > max {
			max = b
		}
	}
	return max, nil
}

// PairStats summarizes a verification sweep over all pairs.
type PairStats struct {
	Pairs           int
	WorstUpperSlack float64 // max D+/d
	WorstRatio      float64 // max D+/D−
	MeanUpperSlack  float64
	BadPairs        int // pairs with D+ > (1+Delta)*d
}

// VerifyAllPairs estimates every pair from labels alone and checks the
// Theorem 3.4 guarantee: d <= D+ <= (1+Delta)·d (and the sandwich on D−).
func (s *Scheme) VerifyAllPairs() (PairStats, error) {
	idx := s.Cons.Idx
	n := idx.N()
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	stats := make([]PairStats, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.WorstUpperSlack, st.WorstRatio = 1, 1
			sum := 0.0
			for u := w; u < n; u += workers {
				for v := u + 1; v < n; v++ {
					d := idx.Dist(u, v)
					lo, hi, ok := Estimate(s.labels[u], s.labels[v])
					if !ok {
						errs[w] = fmt.Errorf("pair (%d,%d): no common neighbor identified", u, v)
						return
					}
					if lo > d*(1+1e-9) || hi < d*(1-1e-9) {
						errs[w] = fmt.Errorf("pair (%d,%d): sandwich violated: %v <= %v <= %v", u, v, lo, d, hi)
						return
					}
					st.Pairs++
					slack := hi / d
					sum += slack
					if slack > st.WorstUpperSlack {
						st.WorstUpperSlack = slack
					}
					if lo > 0 {
						if r := hi / lo; r > st.WorstRatio {
							st.WorstRatio = r
						}
					}
					if hi > (1+s.Delta)*d*(1+1e-9) {
						st.BadPairs++
					}
				}
			}
			if st.Pairs > 0 {
				st.MeanUpperSlack = sum / float64(st.Pairs)
			}
		}(w)
	}
	wg.Wait()
	var total PairStats
	total.WorstUpperSlack, total.WorstRatio = 1, 1
	sum := 0.0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return total, errs[w]
		}
		total.Pairs += stats[w].Pairs
		total.BadPairs += stats[w].BadPairs
		total.WorstUpperSlack = math.Max(total.WorstUpperSlack, stats[w].WorstUpperSlack)
		total.WorstRatio = math.Max(total.WorstRatio, stats[w].WorstRatio)
		sum += stats[w].MeanUpperSlack * float64(stats[w].Pairs)
	}
	if total.Pairs > 0 {
		total.MeanUpperSlack = sum / float64(total.Pairs)
	}
	if total.BadPairs > 0 {
		return total, fmt.Errorf("%d of %d pairs exceed (1+%v) upper bound (worst %v)",
			total.BadPairs, total.Pairs, s.Delta, total.WorstUpperSlack)
	}
	return total, nil
}

package metric

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkRowSort sorts a row built in node order from dists with sortRow
// and with the slices.SortFunc(neighborCmp) it replaces, and requires
// the two to agree entry for entry, distances compared bit for bit (so
// -0 and +0, and NaNs, must land where the old sort put them).
func checkRowSort(t *testing.T, s *rowSorter, dists []float64) {
	t.Helper()
	got := make([]Neighbor, len(dists))
	for v, d := range dists {
		got[v] = Neighbor{Node: v, Dist: d}
	}
	want := slices.Clone(got)
	slices.SortFunc(want, neighborCmp)
	s.sortRow(got)
	for i := range want {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("n = %d: entry %d = %v, SortFunc put %v there", len(dists), i, got[i], want[i])
		}
	}
}

// TestRowSortMatchesSortFunc checks sortRow against the order it
// replaces on the inputs that could tell a radix sort on the key
// Float64bits(d+0) from a comparison sort: ties, signed zeros,
// subnormals, huge exponents and +Inf on the radix path; NaN and
// negative distances, which must take the fallback; and lengths 0, 1,
// 2 and each side of the cutoff. One sorter serves every case, as one
// serves a worker's rows.
func TestRowSortMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := map[string]func(v int) float64{
		"uniform":    func(int) float64 { return rng.Float64() * 1000 },
		"ties":       func(int) float64 { return float64(rng.Intn(4)) },
		"all-equal":  func(int) float64 { return 7 },
		"signed-0":   func(int) float64 { return []float64{0, math.Copysign(0, -1), 1}[rng.Intn(3)] },
		"subnormal":  func(int) float64 { return math.SmallestNonzeroFloat64 * float64(rng.Intn(8)) },
		"huge":       func(int) float64 { return []float64{math.MaxFloat64, 1e300, math.Inf(1), 1e-300, 2}[rng.Intn(5)] },
		"exp-spread": func(int) float64 { return math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000) },
		"nan":        func(int) float64 { return []float64{math.NaN(), 1, 2, 2}[rng.Intn(4)] },
		"negative":   func(int) float64 { return []float64{-1, 3, 0, -0.5, 3}[rng.Intn(5)] },
		"late-nan": func(v int) float64 {
			if v == radixCutoff+10 {
				return math.NaN()
			}
			return float64(v % 9)
		},
		"late-neg": func(v int) float64 {
			if v == radixCutoff+10 {
				return -2
			}
			return float64(v % 9)
		},
	}
	var s rowSorter
	for name, g := range gen {
		for _, n := range []int{0, 1, 2, 3, radixCutoff - 1, radixCutoff, radixCutoff + 1, 256, 1024} {
			dists := make([]float64, n)
			for v := range dists {
				dists[v] = g(v)
			}
			t.Run(name, func(t *testing.T) { checkRowSort(t, &s, dists) })
		}
	}
}

// FuzzRowSort checks sortRow against slices.SortFunc(neighborCmp) on
// rows of n distances taken cyclically from raw's 8-byte words (so rows
// tie whenever n exceeds the word count). Unless signed is set the sign
// bit is cleared, which keeps most inputs on the radix path.
func FuzzRowSort(f *testing.F) {
	word := func(ds ...float64) []byte {
		var b []byte
		for _, d := range ds {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d))
		}
		return b
	}
	f.Add(word(3, 1, 2), uint16(radixCutoff+1), false)
	f.Add(word(0, math.Copysign(0, -1), math.SmallestNonzeroFloat64), uint16(300), true)
	f.Add(word(math.Inf(1), math.MaxFloat64, 1e-310), uint16(radixCutoff), false)
	f.Add(word(math.NaN(), 4), uint16(200), false)
	f.Add(word(-1, 4, 2.5), uint16(200), true)
	f.Add([]byte{1}, uint16(2), false)
	var s rowSorter
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, signed bool) {
		for len(raw)%8 != 0 {
			raw = append(raw, 0)
		}
		words := len(raw) / 8
		if words == 0 || n > 4096 {
			return
		}
		dists := make([]float64, n)
		for v := range dists {
			bits := binary.LittleEndian.Uint64(raw[8*(v%words):])
			if !signed {
				bits &^= 1 << 63
			}
			dists[v] = math.Float64frombits(bits)
		}
		checkRowSort(t, &s, dists)
	})
}

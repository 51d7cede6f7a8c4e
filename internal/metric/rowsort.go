package metric

import (
	"math"
	"slices"
)

// radixCutoff is the row length below which sortRow leaves a row to
// slices.SortFunc. Per element on a 2-vCPU Xeon (latency rows, median
// of three), pdqsort by neighborCmp against the radix passes: 20 vs 92
// ns at n = 16, 35 vs 40 at 64, 39 vs 30 at 128, 47 vs 39 at 256, 95 vs
// 30 at 1024 and 123 vs 29 at 4096. The histograms cost a fixed ~8 KB
// clear and a pass per byte, which a short row cannot amortize.
const radixCutoff = 128

// infBits is math.Float64bits(+Inf), the largest key the radix passes
// order correctly: every key above it is a NaN or carries the sign bit.
const infBits = 0x7FF0000000000000

// rowSorter is the scratch of sortRow, kept per worker (never per row):
// the ping-pong buffer of the radix passes and their byte histograms.
// A rowSorter is not safe for concurrent use.
type rowSorter struct {
	buf   []Neighbor
	count [8][256]int32
}

// sortRow puts row into neighborCmp's order: ascending distance, ties
// toward the smaller node id. row must list equal distances in
// ascending node order, as a row built in node order does.
//
// A long row is sorted by a stable LSD radix sort, one pass per byte of
// the key math.Float64bits(d+0), skipping bytes every key shares. For
// non-negative distances that key orders as the distance does (d+0 makes
// -0 the +0 it compares equal to), and stability keeps ties in their
// input node order — exactly neighborCmp's total order, so the bytes
// match slices.SortFunc's. A short row, or one holding a negative or NaN
// distance, is sorted by slices.SortFunc(row, neighborCmp) itself.
func (s *rowSorter) sortRow(row []Neighbor) {
	n := len(row)
	if n < radixCutoff {
		slices.SortFunc(row, neighborCmp)
		return
	}
	count := &s.count
	*count = [8][256]int32{}
	for _, nb := range row {
		k := math.Float64bits(nb.Dist + 0)
		if k > infBits {
			slices.SortFunc(row, neighborCmp)
			return
		}
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	if cap(s.buf) < n {
		s.buf = make([]Neighbor, n)
	}
	src, dst := row, s.buf[:n]
	for p := range count {
		shift := 8 * p
		c := &count[p]
		if c[byte(math.Float64bits(src[0].Dist+0)>>shift)] == int32(n) {
			continue // every key shares this byte
		}
		var sum int32
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		for _, nb := range src {
			b := byte(math.Float64bits(nb.Dist+0) >> shift)
			dst[c[b]] = nb
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &row[0] {
		copy(row, src)
	}
}

// ballEnd reports how many entries of the sorted row lie within
// distance r: the index of the first entry farther than r, by a plain
// binary search (the closed ball B_u(r) is row[:ballEnd(row, r)]).
func ballEnd(row []Neighbor, r float64) int {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].Dist > r {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

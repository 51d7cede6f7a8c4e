// Package intset provides allocation-lean integer-set scratch for the
// construction pipeline.
//
// The constructions union many small node sets per node (X-rings across
// levels, Z-sets across scales, virtual neighbor sets T_u, next-level
// neighborhoods for the ζ maps). Doing that with map[int]bool costs two
// allocations per set plus hashing per element — the dominant allocation
// source of the label build before this package existed. A Set is the
// classic dense mark-array-plus-member-list: O(1) insert and membership,
// O(len) reset (only the members touched are cleared), zero allocation
// after warm-up when reused through a per-worker scratch buffer.
//
// A dense set comes out in id order without a sort: its mark array
// already holds the members in that order, so Sorted reads them off with
// one linear scan of the universe.
//
// MergeSorted complements it for the common case where the inputs are
// already sorted: the canonical X/Y ring slices never need marking at
// all, just a linear merge.
package intset

import "sort"

// denseFactor sets the dense read-out's threshold: a set whose size times
// denseFactor reaches the universe size is read off its mark array in id
// order (O(n) scan), a sparser one is sorted (O(k log k)).
const denseFactor = 8

// Set is a reusable dense set over the universe [0, n). The zero value
// is ready to use; Reset fixes the universe size and clears the set.
// A Set is not safe for concurrent use — keep one per worker.
type Set struct {
	mark    []bool
	members []int
}

// Reset clears the set and (re)sizes the universe to n. Marks of the
// previous members are cleared individually, so a reused Set pays O(len)
// per generation, not O(n). Adding an id outside [0, n) panics.
func (s *Set) Reset(n int) {
	if cap(s.mark) < n {
		s.mark = make([]bool, n)
		s.members = s.members[:0]
		return
	}
	for _, v := range s.members {
		s.mark[v] = false
	}
	s.mark = s.mark[:n]
	s.members = s.members[:0]
}

// Add inserts v and reports whether it was newly added.
func (s *Set) Add(v int) bool {
	if s.mark[v] {
		return false
	}
	s.mark[v] = true
	s.members = append(s.members, v)
	return true
}

// AddAll inserts every element of vs.
func (s *Set) AddAll(vs []int) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Has reports membership.
func (s *Set) Has(v int) bool { return s.mark[v] }

// Len reports the current cardinality.
func (s *Set) Len() int { return len(s.members) }

// Members returns the elements in insertion order. The slice is the
// set's scratch storage: valid until the next Reset, not to be retained.
// Sampling code relies on insertion order for seed-reproducibility.
func (s *Set) Members() []int { return s.members }

// Sorted returns the elements ascending in a fresh exact-size slice
// (safe to retain). The internal member order becomes sorted as a side
// effect, which subsequent Members calls observe.
func (s *Set) Sorted() []int {
	out := make([]int, len(s.members))
	copy(out, s.SortedMembers())
	return out
}

// SortedMembers puts the member list in ascending order in place and
// returns it — the zero-allocation variant of Sorted for callers that
// only need the slice until the next Reset. A dense set is rewritten
// from its mark array; a sparse one is sorted.
func (s *Set) SortedMembers() []int {
	if denseFactor*len(s.members) < len(s.mark) {
		sort.Ints(s.members)
		return s.members
	}
	k := 0
	for v, in := range s.mark {
		if in {
			s.members[k] = v
			k++
		}
	}
	return s.members
}

// MergeSorted appends the sorted-unique union of a and b — each already
// sorted ascending, possibly with duplicates — to dst and returns it.
// Pass dst = a scratch slice [:0] to avoid allocation entirely.
func MergeSorted(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var v int
		switch {
		case a[i] < b[j]:
			v = a[i]
			i++
		case b[j] < a[i]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		if k := len(dst); k == 0 || dst[k-1] != v {
			dst = append(dst, v)
		}
	}
	for ; i < len(a); i++ {
		if k := len(dst); k == 0 || dst[k-1] != a[i] {
			dst = append(dst, a[i])
		}
	}
	for ; j < len(b); j++ {
		if k := len(dst); k == 0 || dst[k-1] != b[j] {
			dst = append(dst, b[j])
		}
	}
	return dst
}

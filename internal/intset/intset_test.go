package intset

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set
	s.Reset(10)
	if !s.Add(3) || !s.Add(7) || s.Add(3) {
		t.Fatal("Add dedup broken")
	}
	if !s.Has(3) || s.Has(4) {
		t.Fatal("Has broken")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("Members = %v (want insertion order)", got)
	}
}

// TestSetReuseMatchesMap drives a reused Set against map[int]bool over
// random generations, checking sorted output and that stale marks never
// leak across Reset.
func TestSetReuseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Set
	for gen := 0; gen < 200; gen++ {
		n := 1 + rng.Intn(64)
		s.Reset(n)
		ref := map[int]bool{}
		for i := 0; i < rng.Intn(3*n); i++ {
			v := rng.Intn(n)
			ref[v] = true
			s.Add(v)
		}
		for v := 0; v < n; v++ {
			if s.Has(v) != ref[v] {
				t.Fatalf("gen %d: Has(%d) = %v, ref %v", gen, v, s.Has(v), ref[v])
			}
		}
		want := make([]int, 0, len(ref))
		for v := range ref {
			want = append(want, v)
		}
		sort.Ints(want)
		if got := s.Sorted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("gen %d: Sorted = %v, want %v", gen, got, want)
		}
	}
}

func TestSetResetGrows(t *testing.T) {
	var s Set
	s.Reset(4)
	s.Add(3)
	s.Reset(100)
	if s.Has(3) {
		t.Fatal("mark leaked across Reset")
	}
	s.Add(99)
	if got := s.Sorted(); !reflect.DeepEqual(got, []int{99}) {
		t.Fatalf("after grow: %v", got)
	}
}

// TestSortedAcrossDenseSwitch checks Sorted and SortedMembers against
// sort.Ints of the members at set sizes straddling the dense read-out's
// threshold (0, 1, threshold−1, threshold, threshold+1, n), for random
// insertion orders, on a Set reused from generation to generation — so
// each read-out also follows a dense Reset, including one to a smaller
// universe.
func TestSortedAcrossDenseSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Set
	for _, n := range []int{64, 1000, 1024, 40} {
		th := (n + denseFactor - 1) / denseFactor // smallest dense size
		for _, k := range []int{0, 1, th - 1, th, th + 1, n} {
			for rep := 0; rep < 3; rep++ {
				s.Reset(n)
				perm := rng.Perm(n)[:k]
				for _, v := range perm {
					s.Add(v)
				}
				s.AddAll(perm[:min(1, k)]) // a duplicate add changes nothing
				want := append([]int(nil), perm...)
				sort.Ints(want)
				if got := s.Sorted(); !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d: Sorted = %v, want %v", n, k, got, want)
				}
				if got := s.SortedMembers(); !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d: SortedMembers = %v, want %v", n, k, got, want)
				}
				if got := s.Members(); !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d: Members after the read-out = %v, want sorted", n, k, got)
				}
			}
		}
	}
}

func TestMergeSorted(t *testing.T) {
	cases := []struct{ a, b, want []int }{
		{nil, nil, nil},
		{[]int{1, 3, 5}, nil, []int{1, 3, 5}},
		{nil, []int{2}, []int{2}},
		{[]int{1, 2, 3}, []int{2, 3, 4}, []int{1, 2, 3, 4}},
		{[]int{1, 1, 2}, []int{2, 2}, []int{1, 2}},
		{[]int{5, 6}, []int{1, 2}, []int{1, 2, 5, 6}},
	}
	for _, c := range cases {
		if got := MergeSorted(nil, c.a, c.b); !reflect.DeepEqual(got, c.want) {
			if !(len(got) == 0 && len(c.want) == 0) {
				t.Fatalf("MergeSorted(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
	// Appending into scratch preserves the prefix.
	scratch := []int{42}
	out := MergeSorted(scratch, []int{1}, []int{2})
	if !reflect.DeepEqual(out, []int{42, 1, 2}) {
		t.Fatalf("scratch merge = %v", out)
	}
}

func TestMergeSortedRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		a := sortedRandom(rng)
		b := sortedRandom(rng)
		ref := map[int]bool{}
		for _, v := range a {
			ref[v] = true
		}
		for _, v := range b {
			ref[v] = true
		}
		want := make([]int, 0, len(ref))
		for v := range ref {
			want = append(want, v)
		}
		sort.Ints(want)
		got := MergeSorted(nil, a, b)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: MergeSorted(%v, %v) = %v, want %v", iter, a, b, got, want)
		}
	}
}

func sortedRandom(rng *rand.Rand) []int {
	out := make([]int, rng.Intn(12))
	for i := range out {
		out[i] = rng.Intn(20)
	}
	sort.Ints(out)
	return out
}

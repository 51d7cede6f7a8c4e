package metric

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// testSpaces returns one instance from every generator in spaces.go, so
// the backend-equivalence properties are checked across every metric
// family the repo ships.
func testSpaces(t testing.TB) []struct {
	name  string
	space Space
} {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cube := UniformCube(80, 2, 100, rng)
	eucL1, err := NewEuclidean(cube.points, L1)
	if err != nil {
		t.Fatal(err)
	}
	eucLinf, err := NewEuclidean(cube.points, Linf)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGrid(9, 2, L2)
	if err != nil {
		t.Fatal(err)
	}
	line, err := NewLine([]float64{0, 1, 2.5, 7, 7.5, 20, 21, 40})
	if err != nil {
		t.Fatal(err)
	}
	expLine, err := ExponentialLine(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	expAspect, err := ExponentialLineForAspect(30, 48)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := NewClusteredLatency(90, 3, []int{3, 3}, []float64{200, 40, 8}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := NewMatrix(Materialize(lat).d)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		space Space
	}{
		{"cube-l2", cube},
		{"euclidean-l1", eucL1},
		{"euclidean-linf", eucLinf},
		{"grid", grid},
		{"line", line},
		{"expline", expLine},
		{"expline-aspect", expAspect},
		{"clustered-latency", lat},
		{"matrix", matrix},
		{"perturbed", NewPerturbed(cube, 0.2, 7)},
		{"singleton", Materialize(UniformCube(1, 2, 1, rng))},
	}
}

// queryEquivalence asserts that got answers every ball query identically
// to the eager reference. The radius sweep is derived from the reference
// rows so it hits exact tie radii as well as values just below and above
// them — the boundary cases where a truncated prefix could silently hide
// equal-distance nodes.
func queryEquivalence(t *testing.T, want *Index, got BallIndex) {
	t.Helper()
	n := want.N()
	if got.N() != n {
		t.Fatalf("N: got %d, want %d", got.N(), n)
	}
	if g, w := got.Diameter(), want.Diameter(); g != w {
		t.Errorf("Diameter: got %v, want %v", g, w)
	}
	if g, w := got.MinDistance(), want.MinDistance(); g != w {
		t.Errorf("MinDistance: got %v, want %v", g, w)
	}
	if g, w := got.AspectRatio(), want.AspectRatio(); g != w {
		t.Errorf("AspectRatio: got %v, want %v", g, w)
	}
	rng := rand.New(rand.NewSource(11))
	for u := 0; u < n; u++ {
		if g, w := got.Eccentricity(u), want.Eccentricity(u); g != w {
			t.Errorf("Eccentricity(%d): got %v, want %v", u, g, w)
		}
		row := want.Sorted(u)
		var radii []float64
		for _, k := range []int{0, 1, 2, n / 3, n / 2, n - 1} {
			if k < 0 || k >= n {
				continue
			}
			r := row[k].Dist
			radii = append(radii, r, r*(1-1e-12), r*(1+1e-12), r+0.1)
		}
		radii = append(radii, -1, 0, want.Diameter()*2)
		for _, r := range radii {
			if g, w := got.BallCount(u, r), want.BallCount(u, r); g != w {
				t.Fatalf("BallCount(%d, %v): got %d, want %d", u, r, g, w)
			}
			gb, wb := got.Ball(u, r), want.Ball(u, r)
			if len(gb) != len(wb) {
				t.Fatalf("Ball(%d, %v): got %d nodes, want %d", u, r, len(gb), len(wb))
			}
			for i := range gb {
				if gb[i] != wb[i] {
					t.Fatalf("Ball(%d, %v)[%d]: got %+v, want %+v", u, r, i, gb[i], wb[i])
				}
			}
		}
		for _, k := range []int{-3, 0, 1, 2, n / 2, n - 1, n, n + 5} {
			if g, w := got.RadiusForCount(u, k), want.RadiusForCount(u, k); g != w {
				t.Fatalf("RadiusForCount(%d, %d): got %v, want %v", u, k, g, w)
			}
		}
		for _, eps := range []float64{0.001, 0.1, 0.25, 0.5, 0.75, 1} {
			if g, w := got.RadiusForMass(u, eps), want.RadiusForMass(u, eps); g != w {
				t.Fatalf("RadiusForMass(%d, %v): got %v, want %v", u, eps, g, w)
			}
		}
		cands := rng.Perm(n)[:1+rng.Intn(n)]
		gn, gd, gok := got.Nearest(u, cands)
		wn, wd, wok := want.Nearest(u, cands)
		if gn != wn || gd != wd || gok != wok {
			t.Fatalf("Nearest(%d, %v): got (%d,%v,%v), want (%d,%v,%v)", u, cands, gn, gd, gok, wn, wd, wok)
		}
	}
}

// TestBackendEquivalence asserts eager and lazy backends agree exactly on
// every query, for every space generator, across prefix sizes that force
// the lazy extension machinery through all its regimes.
func TestBackendEquivalence(t *testing.T) {
	for _, tc := range testSpaces(t) {
		for _, prefix := range []int{1, 3, 1 << 20} {
			t.Run(fmt.Sprintf("%s/prefix=%d", tc.name, prefix), func(t *testing.T) {
				want := NewIndex(tc.space)
				queryEquivalence(t, want, New(tc.space, Options{Backend: Lazy, InitialPrefix: prefix}))

				// A fresh lazy index whose first query is the full row:
				// Sorted must match byte-for-byte, and the bounded
				// iterator must agree with the row at every stop point.
				lazy := New(tc.space, Options{Backend: Lazy, InitialPrefix: prefix})
				for u := 0; u < want.N(); u++ {
					if !reflect.DeepEqual(lazy.Sorted(u), want.Sorted(u)) {
						t.Fatalf("Sorted(%d) differs between backends", u)
					}
				}
			})
		}
	}
}

// TestBackendEquivalenceParallelBuild asserts the parallel eager build
// produces exactly the serial build's index.
func TestBackendEquivalenceParallelBuild(t *testing.T) {
	for _, tc := range testSpaces(t) {
		t.Run(tc.name, func(t *testing.T) {
			serial := newEager(tc.space, 1)
			parallel := newEager(tc.space, 8)
			if serial.Diameter() != parallel.Diameter() || serial.MinDistance() != parallel.MinDistance() {
				t.Fatalf("stats differ: serial (%v, %v) vs parallel (%v, %v)",
					serial.Diameter(), serial.MinDistance(), parallel.Diameter(), parallel.MinDistance())
			}
			if !reflect.DeepEqual(serial.sorted, parallel.sorted) {
				t.Fatal("sorted rows differ between serial and parallel builds")
			}
		})
	}
}

// TestWithRows asserts WithRows hands an eager index back as is and
// answers for a lazy one with an eager index over the same space whose
// rows are exactly the parallel build's.
func TestWithRows(t *testing.T) {
	for _, tc := range testSpaces(t) {
		t.Run(tc.name, func(t *testing.T) {
			eager := NewIndex(tc.space)
			if got := WithRows(eager, 0); got != BallIndex(eager) {
				t.Fatal("WithRows rebuilt an eager index")
			}
			got, ok := WithRows(NewLazyIndex(tc.space, Options{}), 2).(*Index)
			if !ok || got.Space() != tc.space {
				t.Fatalf("WithRows over a lazy index returned %T, want an eager index over its space", got)
			}
			if !reflect.DeepEqual(got.sorted, eager.sorted) || got.Diameter() != eager.Diameter() || got.MinDistance() != eager.MinDistance() {
				t.Fatal("WithRows' rows differ from the eager build's")
			}
		})
	}
}

// TestNeighborsEarlyBreak asserts both backends' iterators yield the
// sorted row in order and stop cleanly at every break point.
func TestNeighborsEarlyBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	space := UniformCube(40, 2, 10, rng)
	want := NewIndex(space)
	for _, idx := range []BallIndex{want, New(space, Options{Backend: Lazy, InitialPrefix: 2})} {
		for u := 0; u < space.N(); u += 7 {
			for stop := 0; stop <= space.N(); stop += 9 {
				i := 0
				for nb := range idx.Neighbors(u) {
					if nb != want.Sorted(u)[i] {
						t.Fatalf("Neighbors(%d)[%d]: got %+v, want %+v", u, i, nb, want.Sorted(u)[i])
					}
					i++
					if i == stop {
						break
					}
				}
			}
		}
	}
}

// TestLazyIndexConcurrentStress hammers one lazy index from many
// goroutines with a mixed query load and verifies every answer against
// the eager reference. Run under -race this exercises the per-node
// locking and atomic prefix publication.
func TestLazyIndexConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	space, err := NewClusteredLatency(120, 3, []int{3, 3}, []float64{200, 40, 8}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := NewIndex(space)
	lazy := New(space, Options{Backend: Lazy, InitialPrefix: 2})
	n := space.N()
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				u := rng.Intn(n)
				switch i % 6 {
				case 0:
					r := want.Sorted(u)[rng.Intn(n)].Dist
					if g, w := lazy.BallCount(u, r), want.BallCount(u, r); g != w {
						errs <- fmt.Errorf("BallCount(%d,%v): got %d, want %d", u, r, g, w)
						return
					}
				case 1:
					k := 1 + rng.Intn(n)
					if g, w := lazy.RadiusForCount(u, k), want.RadiusForCount(u, k); g != w {
						errs <- fmt.Errorf("RadiusForCount(%d,%d): got %v, want %v", u, k, g, w)
						return
					}
				case 2:
					r := want.RadiusForMass(u, rng.Float64())
					gb, wb := lazy.Ball(u, r), want.Ball(u, r)
					if len(gb) != len(wb) || (len(gb) > 0 && gb[len(gb)-1] != wb[len(wb)-1]) {
						errs <- fmt.Errorf("Ball(%d,%v) differs", u, r)
						return
					}
				case 3:
					if g, w := lazy.Eccentricity(u), want.Eccentricity(u); g != w {
						errs <- fmt.Errorf("Eccentricity(%d): got %v, want %v", u, g, w)
						return
					}
				case 4:
					stop := rng.Intn(n)
					j := 0
					for nb := range lazy.Neighbors(u) {
						if nb != want.Sorted(u)[j] {
							errs <- fmt.Errorf("Neighbors(%d)[%d]: got %+v", u, j, nb)
							return
						}
						j++
						if j == stop {
							break
						}
					}
				default:
					if g, w := lazy.Diameter(), want.Diameter(); g != w {
						errs <- fmt.Errorf("Diameter: got %v, want %v", g, w)
						return
					}
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

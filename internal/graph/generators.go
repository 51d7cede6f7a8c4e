package graph

import (
	"fmt"
	"math"
	"math/rand"

	"rings/internal/metric"
)

// GridGraph builds the side x side lattice with 4-neighbor edges. Edge
// weights are 1, optionally jittered multiplicatively by up to jitter
// (deterministic in seed). Its shortest-path metric is doubling with
// alpha ~ 2; with jitter > 0 all pairwise distances become distinct, the
// regime Section 5.1 assumes "for simplicity".
func GridGraph(side int, jitter float64, seed int64) (*Graph, error) {
	if side < 2 {
		return nil, fmt.Errorf("graph: grid side %d too small", side)
	}
	n := side * side
	g := New(n)
	rng := rand.New(rand.NewSource(seed))
	w := func() float64 {
		if jitter <= 0 {
			return 1
		}
		return 1 + jitter*rng.Float64()
	}
	id := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				if err := g.AddUndirected(id(x, y), id(x+1, y), w()); err != nil {
					return nil, err
				}
			}
			if y+1 < side {
				if err := g.AddUndirected(id(x, y), id(x, y+1), w()); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// ExponentialPath builds the path graph 0-1-...-(n-1) where the edge
// (i, i+1) weighs base^i: the graph analogue of the exponential line, with
// aspect ratio ~ base^(n-1). It is the adversarial workload for the
// log(Delta) factors in Tables 1 and 2.
func ExponentialPath(n int, base float64) (*Graph, error) {
	if n < 2 || base <= 1 {
		return nil, fmt.Errorf("graph: invalid exponential path n=%d base=%v", n, base)
	}
	if float64(n-1)*math.Log2(base) > 1000 {
		return nil, fmt.Errorf("graph: exponential path overflows float64")
	}
	g := New(n)
	w := 1.0
	for i := 0; i+1 < n; i++ {
		if err := g.AddUndirected(i, i+1, w); err != nil {
			return nil, err
		}
		w *= base
	}
	return g, nil
}

// GeometricGraph connects every pair of points within the given radius,
// weighting edges by their metric distance, then adds the missing edges of
// a minimum spanning tree so the result is always connected. The
// shortest-path metric approximates the underlying point metric and stays
// doubling.
func GeometricGraph(space metric.Space, radius float64) (*Graph, error) {
	n := space.N()
	if n < 2 {
		return nil, fmt.Errorf("graph: need at least 2 nodes")
	}
	g := New(n)
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if d := space.Dist(u, v); d <= radius {
				if err := g.AddUndirected(u, v, d); err != nil {
					return nil, err
				}
				adj[u][v], adj[v][u] = true, true
			}
		}
	}
	// Prim's MST over the full metric; add any tree edge not yet present.
	inTree := make([]bool, n)
	best := make([]float64, n)
	from := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = -1
	}
	best[0] = 0
	for it := 0; it < n; it++ {
		u := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (u == -1 || best[v] < best[u]) {
				u = v
			}
		}
		inTree[u] = true
		if from[u] >= 0 && !adj[u][from[u]] {
			if err := g.AddUndirected(u, from[u], space.Dist(u, from[u])); err != nil {
				return nil, err
			}
			adj[u][from[u]], adj[from[u]][u] = true, true
		}
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := space.Dist(u, v); d < best[v] {
					best[v], from[v] = d, u
				}
			}
		}
	}
	return g, nil
}

// OverlayFromNeighbors builds the directed overlay graph of a
// routing-on-metrics scheme (Section 4.1): one edge u -> v, weighted
// d(u,v), per overlay neighbor v of u. Each list must be strictly
// ascending (sorted, duplicate-free); a self entry is dropped. Every
// node's out-edges therefore come out in ascending To order, which is
// what lets SearchEdge find an overlay link by binary search.
func OverlayFromNeighbors(space metric.Space, neighbors [][]int) (*Graph, error) {
	n := space.N()
	if len(neighbors) != n {
		return nil, fmt.Errorf("graph: %d neighbor lists for %d nodes", len(neighbors), n)
	}
	g := New(n)
	for u, list := range neighbors {
		g.out[u] = make([]Edge, 0, len(list))
		for i, v := range list {
			if i > 0 && v <= list[i-1] {
				return nil, fmt.Errorf("graph: neighbor list of %d not strictly ascending at %d", u, i)
			}
			if v == u {
				continue
			}
			if err := g.AddEdge(u, v, space.Dist(u, v)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Symmetrize returns a copy of g where every edge u->v is mirrored by
// v->u with the same weight (deduplicated). Overlay graphs built from
// rings are directed; routing schemes on graphs want undirected input.
func Symmetrize(g *Graph) *Graph {
	n := g.N()
	type key struct{ u, v int }
	weights := make(map[key]float64)
	for u := 0; u < n; u++ {
		for _, e := range g.Out(u) {
			a, b := u, e.To
			if a > b {
				a, b = b, a
			}
			k := key{a, b}
			if w, ok := weights[k]; !ok || e.Weight < w {
				weights[k] = e.Weight
			}
		}
	}
	out := New(n)
	for u := 0; u < n; u++ {
		for _, e := range g.Out(u) {
			a, b := u, e.To
			if a > b {
				a, b = b, a
			}
			if w, ok := weights[key{a, b}]; ok && u < e.To {
				_ = out.AddUndirected(u, e.To, w)
				delete(weights, key{a, b})
			}
		}
	}
	return out
}

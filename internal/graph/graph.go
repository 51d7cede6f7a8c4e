// Package graph provides the weighted-graph substrate for the paper's
// routing schemes (Sections 2 and 4, Appendix B): adjacency with an
// explicit out-edge enumeration (the paper's φ_u, the basis of first-hop
// pointers), Dijkstra, parallel all-pairs shortest paths with first-hop
// tables, hop-bounded near-shortest paths (the N_δ of Theorem B.1),
// shortest-path trees, and the graph families used by the experiments.
package graph

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
)

// Edge is a directed, weighted edge.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a directed weighted graph on nodes 0..N-1. The order of each
// node's out-edge slice is the paper's enumeration of outgoing links: a
// first-hop pointer is an index into it, storable in ceil(log2(outdegree))
// bits.
type Graph struct {
	out [][]Edge
}

// New creates an empty graph on n nodes.
func New(n int) *Graph {
	return &Graph{out: make([][]Edge, n)}
}

// N reports the number of nodes.
func (g *Graph) N() int { return len(g.out) }

// AddEdge appends a directed edge u -> v. Weights must be positive and
// finite.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() || u == v {
		return fmt.Errorf("graph: invalid edge %d->%d", u, v)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: invalid weight %v on %d->%d", w, u, v)
	}
	g.out[u] = append(g.out[u], Edge{To: v, Weight: w})
	return nil
}

// AddUndirected appends the pair of directed edges u <-> v.
func (g *Graph) AddUndirected(u, v int, w float64) error {
	if err := g.AddEdge(u, v, w); err != nil {
		return err
	}
	return g.AddEdge(v, u, w)
}

// Out returns node u's out-edges in enumeration order (shared slice).
func (g *Graph) Out(u int) []Edge { return g.out[u] }

// OutDegree reports the out-degree of u.
func (g *Graph) OutDegree(u int) int { return len(g.out[u]) }

// MaxOutDegree reports the paper's D_out.
func (g *Graph) MaxOutDegree() int {
	d := 0
	for u := range g.out {
		if len(g.out[u]) > d {
			d = len(g.out[u])
		}
	}
	return d
}

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int {
	m := 0
	for u := range g.out {
		m += len(g.out[u])
	}
	return m
}

// EdgeIndex reports the index of an edge u->v in u's enumeration, or -1.
// When parallel edges exist it returns the first (they are equivalent for
// routing if the weight ties; otherwise the cheapest wins in Dijkstra).
func (g *Graph) EdgeIndex(u, v int) int {
	for i, e := range g.out[u] {
		if e.To == v {
			return i
		}
	}
	return -1
}

// SearchEdge is EdgeIndex by binary search, for a node whose out-edges
// ascend strictly by To — every node of an OverlayFromNeighbors graph.
func (g *Graph) SearchEdge(u, v int) int {
	out := g.out[u]
	i, ok := slices.BinarySearchFunc(out, v, func(e Edge, v int) int { return e.To - v })
	if !ok {
		return -1
	}
	return i
}

type heapItem struct {
	node int
	dist float64
}

type minHeap []heapItem

func (h minHeap) Len() int      { return len(h) }
func (h minHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h minHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h *minHeap) Push(x any) { *h = append(*h, x.(heapItem)) }
func (h *minHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// ShortestPaths is the result of a single-source Dijkstra.
type ShortestPaths struct {
	Source int
	// Dist[v] is the shortest-path distance from Source; +Inf when v is
	// unreachable.
	Dist []float64
	// Parent[v] is the predecessor of v on a shortest path (-1 for the
	// source and unreachable nodes).
	Parent []int
	// FirstHop[v] is the index, in Source's out-edge enumeration, of the
	// first edge of a shortest path to v (-1 for v == Source and
	// unreachable nodes). This is the paper's first-hop pointer g_u(v).
	FirstHop []int32
}

// Dijkstra computes single-source shortest paths with first-hop pointers.
// Ties are broken deterministically (strict improvement only, heap ordered
// by (dist, node)).
func Dijkstra(g *Graph, source int) *ShortestPaths {
	n := g.N()
	sp := &ShortestPaths{
		Source:   source,
		Dist:     make([]float64, n),
		Parent:   make([]int, n),
		FirstHop: make([]int32, n),
	}
	for v := range sp.Dist {
		sp.Dist[v] = math.Inf(1)
		sp.Parent[v] = -1
		sp.FirstHop[v] = -1
	}
	sp.Dist[source] = 0
	done := make([]bool, n)
	h := &minHeap{{node: source}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for i, e := range g.Out(u) {
			alt := sp.Dist[u] + e.Weight
			if alt < sp.Dist[e.To] {
				sp.Dist[e.To] = alt
				sp.Parent[e.To] = u
				if u == source {
					sp.FirstHop[e.To] = int32(i)
				} else {
					sp.FirstHop[e.To] = sp.FirstHop[u]
				}
				heap.Push(h, heapItem{node: e.To, dist: alt})
			}
		}
	}
	return sp
}

// PathTo reconstructs the node sequence from the source to v, inclusive.
// It reports ok=false when v is unreachable.
func (sp *ShortestPaths) PathTo(v int) (path []int, ok bool) {
	if math.IsInf(sp.Dist[v], 1) {
		return nil, false
	}
	var rev []int
	for x := v; x != -1; x = sp.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// Connected reports whether every node is reachable from node 0 following
// directed edges.
func Connected(g *Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(u) {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}

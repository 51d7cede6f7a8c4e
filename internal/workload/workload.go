// Package workload centralizes the experiment inputs so the benchmark
// harness, the benches and the examples all draw from one catalogue of
// reproducible instances (every generator takes an explicit seed).
package workload

import (
	"fmt"
	"math/rand"

	"rings/internal/graph"
	"rings/internal/metric"
)

// indexOptions is the backend selection applied by every instance
// constructor. Experiments flip it once at startup (see cmd/ringbench
// -backend); the default is the eager parallel-build backend.
var indexOptions metric.Options

// SetIndexOptions selects the ball-index backend used for all instances
// built afterwards. It is meant to be called once, before any instance
// construction (it is not synchronized).
func SetIndexOptions(opts metric.Options) { indexOptions = opts }

// NewIndex builds an index for space with the workload's configured
// backend, for experiments that assemble custom spaces.
func NewIndex(space metric.Space) metric.BallIndex { return metric.New(space, indexOptions) }

// MetricInstance is a named, indexed metric space.
type MetricInstance struct {
	Name string
	Idx  metric.BallIndex
}

// GraphInstance is a named weighted graph with its shortest-path metric.
type GraphInstance struct {
	Name string
	G    *graph.Graph
	APSP *graph.APSP
	Idx  metric.BallIndex
}

// MetricSpec names one metric instance of the catalogue plus its
// per-family size knobs. cmd/ringsrv and the oracle serving engine both
// select workloads through it, so "the same workload" means the same
// thing everywhere.
type MetricSpec struct {
	// Name selects the family: grid | cube | expline | latency.
	Name string
	// Side is the grid side (grid).
	Side int
	// N is the node count (cube, expline, latency).
	N int
	// LogAspect is the target log2 aspect ratio (expline).
	LogAspect float64
	// Seed drives the random families (cube, latency).
	Seed int64
}

// Space builds the raw (unindexed) metric space of the spec along with
// its canonical instance name. Callers that want a non-default ball-index
// backend can index the space themselves; everyone else uses Metric.
func (sp MetricSpec) Space() (metric.Space, string, error) {
	switch sp.Name {
	case "grid":
		g, err := metric.NewGrid(sp.Side, 2, metric.L2)
		if err != nil {
			return nil, "", err
		}
		return g, fmt.Sprintf("grid-%dx%d", sp.Side, sp.Side), nil
	case "cube":
		rng := rand.New(rand.NewSource(sp.Seed))
		return metric.UniformCube(sp.N, 2, 100, rng), fmt.Sprintf("cube-n%d", sp.N), nil
	case "expline":
		l, err := metric.ExponentialLineForAspect(sp.N, sp.LogAspect)
		if err != nil {
			return nil, "", err
		}
		return l, fmt.Sprintf("expline-n%d-logA%.0f", sp.N, sp.LogAspect), nil
	case "latency":
		rng := rand.New(rand.NewSource(sp.Seed))
		space, err := metric.NewClusteredLatency(sp.N, 3, []int{4, 4}, []float64{300, 60, 10}, 3, rng)
		if err != nil {
			return nil, "", err
		}
		return space, fmt.Sprintf("latency-n%d", sp.N), nil
	default:
		return nil, "", fmt.Errorf("workload: unknown metric family %q (want grid|cube|expline|latency)", sp.Name)
	}
}

// Metric builds the instance named by the spec with the workload's
// configured backend.
func Metric(sp MetricSpec) (MetricInstance, error) {
	space, name, err := sp.Space()
	if err != nil {
		return MetricInstance{}, err
	}
	return MetricInstance{Name: name, Idx: NewIndex(space)}, nil
}

// Grid returns the side x side unit grid metric (UL-constrained; the
// Kleinberg substrate).
func Grid(side int) (MetricInstance, error) {
	return Metric(MetricSpec{Name: "grid", Side: side})
}

// Cube returns n uniform points in a 2D square (doubling, random).
func Cube(n int, seed int64) (MetricInstance, error) {
	return Metric(MetricSpec{Name: "cube", N: n, Seed: seed})
}

// ExpLine returns the exponential line sized for a target log2 aspect —
// the paper's super-polynomial-∆ workload.
func ExpLine(n int, log2Aspect float64) (MetricInstance, error) {
	return Metric(MetricSpec{Name: "expline", N: n, LogAspect: log2Aspect})
}

// Latency returns the clustered Internet-latency metric (the Meridian
// motivation).
func Latency(n int, seed int64) (MetricInstance, error) {
	return Metric(MetricSpec{Name: "latency", N: n, Seed: seed})
}

// GridGraph returns the jittered grid graph instance (distinct pairwise
// distances, doubling shortest-path metric).
func GridGraph(side int, seed int64) (GraphInstance, error) {
	g, err := graph.GridGraph(side, 0.3, seed)
	if err != nil {
		return GraphInstance{}, err
	}
	return finishGraph(fmt.Sprintf("gridgraph-%dx%d", side, side), g)
}

// ExpPath returns the exponential path graph (aspect ratio ~ base^(n-1)).
func ExpPath(n int, base float64) (GraphInstance, error) {
	g, err := graph.ExponentialPath(n, base)
	if err != nil {
		return GraphInstance{}, err
	}
	return finishGraph(fmt.Sprintf("exppath-n%d-b%g", n, base), g)
}

// Geometric returns a random geometric graph over a uniform point cloud.
func Geometric(n int, radius float64, seed int64) (GraphInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	space := metric.UniformCube(n, 2, 100, rng)
	g, err := graph.GeometricGraph(space, radius)
	if err != nil {
		return GraphInstance{}, err
	}
	return finishGraph(fmt.Sprintf("geometric-n%d-r%g", n, radius), g)
}

func finishGraph(name string, g *graph.Graph) (GraphInstance, error) {
	apsp, err := graph.AllPairs(g)
	if err != nil {
		return GraphInstance{}, err
	}
	return GraphInstance{
		Name: name,
		G:    g,
		APSP: apsp,
		Idx:  NewIndex(apsp.Metric()),
	}, nil
}

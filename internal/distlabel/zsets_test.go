package distlabel

import (
	"iter"
	"slices"
	"testing"

	"rings/internal/intset"
	"rings/internal/metric"
	"rings/internal/triangulation"
	"rings/internal/workload"
)

// sortedUnion is the reference every set builder is checked against:
// concatenate, sort, drop duplicates.
func sortedUnion(parts ...[]int) []int {
	var all []int
	for _, p := range parts {
		all = append(all, p...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// TestSetBuildersMatchSortedUnion pins BuildXAll, BuildZSets and BuildTSet
// (mark-array read-outs and the saturated-union stop) against the
// sort-the-union reference on all four families at n = 256, under the
// served tuned profile. Z_u is rebuilt from its definition, the union over
// scales t_k of B_u(t_k) ∩ G_jz(k). The other families saturate every
// T-set; expline keeps some unsaturated, so it must show both kinds and
// the full union runs beside the stop.
func TestSetBuildersMatchSortedUnion(t *testing.T) {
	specs := []workload.MetricSpec{
		{Name: "grid", Side: 16},
		{Name: "cube", N: 256, Seed: 3},
		{Name: "expline", N: 256, LogAspect: 60},
		{Name: "latency", N: 256, Seed: 1},
	}
	for _, spec := range specs {
		inst, err := workload.Metric(spec)
		if err != nil {
			t.Fatal(err)
		}
		cons, err := triangulation.NewConstructionParams(inst.Idx, triangulation.TunedParams(0.5/6, 2))
		if err != nil {
			t.Fatal(err)
		}
		n := inst.Idx.N()
		zp := ZSetParams(cons)
		xAll, zAll := BuildXAll(cons, 2), BuildZSets(cons, 2)
		identity := IdentitySet(n)
		var st intset.Set
		full := 0
		for u := 0; u < n; u++ {
			if want := sortedUnion(cons.X[u]...); !slices.Equal(xAll[u], want) {
				t.Fatalf("%s: X_%d = %v, want %v", inst.Name, u, xAll[u], want)
			}
			var zParts [][]int
			for k, tk := range zp.Tks {
				mask := cons.Nets.Mask(zp.Levels[k])
				var part []int
				for _, nb := range inst.Idx.Ball(u, tk) {
					if mask[nb.Node] {
						part = append(part, nb.Node)
					}
				}
				zParts = append(zParts, part)
			}
			if want := sortedUnion(zParts...); !slices.Equal(zAll[u], want) {
				t.Fatalf("%s: Z_%d = %v, want %v", inst.Name, u, zAll[u], want)
			}
			tParts := [][]int{xAll[u], zAll[u]}
			for _, v := range xAll[u] {
				tParts = append(tParts, zAll[v])
			}
			want := sortedUnion(tParts...)
			got := BuildTSet(xAll, zAll, u, &st, identity)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: T_%d = %v, want %v", inst.Name, u, got, want)
			}
			// A saturated row is the one shared identity slice; any other
			// is an explicit list of its own.
			if shared := &got[0] == &identity[0]; shared != (len(want) == n) {
				t.Fatalf("%s: T_%d of %d ids shares the identity slice: %v", inst.Name, u, len(want), shared)
			}
			if len(want) == n {
				full++
			}
		}
		t.Logf("%s: %d of %d T-sets saturated", inst.Name, full, n)
		if spec.Name == "expline" && (full == 0 || full == n) {
			t.Errorf("%s: %d of %d T-sets saturated, want some of each", inst.Name, full, n)
		}
	}
}

// rowless is a ball index that answers distances but refuses every row
// query: what the Z-sets may ask of the index once the construction is
// done.
type rowless struct{ metric.BallIndex }

func (rowless) Sorted(int) []metric.Neighbor            { panic("Z-sets read a sorted row") }
func (rowless) Ball(int, float64) []metric.Neighbor     { panic("Z-sets read a ball") }
func (rowless) Neighbors(int) iter.Seq[metric.Neighbor] { panic("Z-sets walk a row") }

// rowScanZSets is the row scan BuildZSets replaced, kept as the
// reference: each node's distance-sorted row, every neighbor tested by
// Qualifies, the members sorted by id.
func rowScanZSets(cons *triangulation.Construction) [][]int {
	zp := ZSetParams(cons)
	masks := zp.Masks(cons)
	zAll := make([][]int, cons.Idx.N())
	for u := range zAll {
		for _, nb := range cons.Idx.Sorted(u) {
			if zp.Qualifies(masks, nb.Node, nb.Dist) {
				zAll[u] = append(zAll[u], nb.Node)
			}
		}
		slices.Sort(zAll[u])
	}
	return zAll
}

// TestZSetsReadOnlyDistances: BuildZSets and BuildZSet, over an index
// whose Sorted, Ball and Neighbors panic, equal the row scan on all four
// families at n = 256 under the served tuned profile.
func TestZSetsReadOnlyDistances(t *testing.T) {
	for _, spec := range []workload.MetricSpec{
		{Name: "grid", Side: 16},
		{Name: "cube", N: 256, Seed: 3},
		{Name: "expline", N: 256, LogAspect: 60},
		{Name: "latency", N: 256, Seed: 1},
	} {
		inst, err := workload.Metric(spec)
		if err != nil {
			t.Fatal(err)
		}
		cons, err := triangulation.NewConstructionParams(inst.Idx, triangulation.TunedParams(0.5/6, 2))
		if err != nil {
			t.Fatal(err)
		}
		want := rowScanZSets(cons)
		cons.Rebase(rowless{inst.Idx})
		got := BuildZSets(cons, 2)
		zp := ZSetParams(cons)
		masks := zp.Masks(cons)
		sizes := 0
		for u := range want {
			if !slices.Equal(got[u], want[u]) {
				t.Fatalf("%s: Z_%d = %v, the row scan's %v", inst.Name, u, got[u], want[u])
			}
			if one := BuildZSet(cons, zp, masks, u); !slices.Equal(one, want[u]) {
				t.Fatalf("%s: BuildZSet(%d) = %v, the row scan's %v", inst.Name, u, one, want[u])
			}
			sizes += len(want[u])
		}
		t.Logf("%s: %.1f Z-neighbors per node", inst.Name, float64(sizes)/float64(len(want)))
	}
}

package distlabel

import (
	"slices"
	"strings"
	"testing"

	"rings/internal/triangulation"
	"rings/internal/workload"
)

// TestLabelBuildRefusesUnsharedLevel0Prefix: both estimate walks read
// prefix host h as the same node in every label, so a construction in
// which one node's X_u0 ∪ Y_u0 differs from node 0's must fail the label
// build, naming the node, instead of serving labels whose lower bounds
// can exceed the distance.
func TestLabelBuildRefusesUnsharedLevel0Prefix(t *testing.T) {
	inst, err := workload.Metric(workload.MetricSpec{Name: "latency", N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := triangulation.NewConstructionParams(inst.Idx, triangulation.TunedParams(0.5/6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromConstruction(cons, 0.5); err != nil {
		t.Fatalf("intact construction: %v", err)
	}

	// Drop from Y_5,0 one id that X_5,0 does not hold and that is not f_5,0,
	// so the level-0 set shrinks and nothing else the fill reads moves.
	const u = 5
	y := cons.Y[u][0]
	drop := slices.IndexFunc(y, func(w int) bool {
		return w != cons.Zoom[u][0] && !slices.Contains(cons.X[u][0], w)
	})
	if drop < 0 {
		t.Fatalf("Y_%d,0 = %v has no id outside X_%d,0 ∪ {f_%d,0}", u, y, u, u)
	}
	cons.Y[u][0] = slices.Delete(slices.Clone(y), drop, drop+1)
	_, err = FromConstruction(cons, 0.5)
	if err == nil {
		t.Fatalf("label build accepted node %d's level-0 set without id %d", u, y[drop])
	}
	if !strings.Contains(err.Error(), "node 5's level-0 set") {
		t.Fatalf("error %q does not name node %d", err, u)
	}
}

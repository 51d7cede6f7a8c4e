package churn

import (
	"fmt"
	"os"
	"testing"

	"rings/internal/oracle"
)

// TestDiagRepairProfile prints the per-phase cost and dirty breakdown
// of single-op repairs at a serving-ish size. Diagnostic; run with -v.
func TestDiagRepairProfile(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic; run with -v")
	}
	n := 1024
	if s := os.Getenv("CHURN_DIAG_N"); s != "" {
		fmt.Sscanf(s, "%d", &n)
	}
	ocfg := oracle.Config{Workload: "latency", N: n, Seed: 1}
	m, err := NewMutator(Config{Oracle: ocfg})
	if err != nil {
		t.Fatal(err)
	}
	prev := m.st
	ops := []Op{
		{Kind: Join, Base: m.NextDormant()},
		{Kind: Leave, Base: n / 10},
		{Kind: Join, Base: m.NextDormant() + 1},
		{Kind: Leave, Base: n / 2},
	}
	for step, op := range ops {
		if _, err := m.Apply(op); err != nil {
			t.Fatal(err)
		}
		st := m.st
		b := m.Snapshot().Build
		last := m.Stats().Last
		fmt.Printf("step %d (%s): n=%d repaired=%d zpatch=%d zrec=%d trebuilt=%d total=%.3fs\n",
			step, op.Kind, st.n, last.RepairedLabels, last.ZPatched, last.ZRecomputed, last.TRebuilt, last.ElapsedSec)
		fmt.Printf("  idx=%.3f nets=%.3f radii=%.3f pack=%.3f rings=%.3f tri=%.3f z=%.3f t=%.3f fill=%.3f ovl=%.3f\n",
			b.IndexSec, b.NetsSec, b.RadiiSec, b.PackingsSec, b.RingsSec, b.TriangulationSec,
			b.ZSetsSec, b.TSetsSec, b.LabelFillSec, b.OverlaySec)
		common := st.n
		if prev.n < common {
			common = prev.n
		}
		xd, yd, zd := 0, 0, 0
		xdl := make([]int, st.cons.IMax+1)
		ydl := make([]int, st.cons.IMax+1)
		for u := 0; u < common; u++ {
			dx, dy := false, false
			for i := 0; i <= st.cons.IMax; i++ {
				if !rawEq(prev.cons.X[u][i], st.cons.X[u][i]) {
					xdl[i]++
					dx = true
				}
				if !rawEq(prev.cons.Y[u][i], st.cons.Y[u][i]) {
					ydl[i]++
					dy = true
				}
			}
			if dx {
				xd++
			}
			if dy {
				yd++
			}
			if !rawEq(prev.cons.Zoom[u], st.cons.Zoom[u]) {
				zd++
			}
		}
		rdl := make([]int, st.cons.IMax+1)
		for u := 0; u < common; u++ {
			for i := 0; i <= st.cons.IMax; i++ {
				if prev.cons.R[u][i] != st.cons.R[u][i] {
					rdl[i]++
				}
			}
		}
		fmt.Printf("  nodes w/ xDiff=%d yDiff=%d zoomDiff=%d\n", xd, yd, zd)
		fmt.Printf("  xDiff/level: %v\n  yDiff/level: %v\n  rDiff/level: %v\n", xdl, ydl, rdl)
		prev = st
	}
}

func rawEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

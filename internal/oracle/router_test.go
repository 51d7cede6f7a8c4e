package oracle

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"rings/internal/routing"
)

func routerBuilds() (commit, request int64) {
	return mRouterBuilds.With(routerCauseCommit).Value(), mRouterBuilds.With(routerCauseRequest).Value()
}

// TestRouterBuiltOnceByConcurrentRoutes: sixteen goroutines route on a
// cold build, whose router nobody has built. One of them builds it, all of
// them answer exactly what routing.Route answers on a router built
// directly over the same index, and the build is counted once, as a
// request's. Run with -race -count=10.
func TestRouterBuiltOnceByConcurrentRoutes(t *testing.T) {
	snap := buildTestSnapshot(t, 5)
	ref, err := routing.NewThm21Metric(snap.Idx, snap.Config.Delta)
	if err != nil {
		t.Fatal(err)
	}
	n := snap.N()
	commit0, request0 := routerBuilds()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				src, dst := (g*7+k*13)%n, (g*11+k*5+3)%n
				got, err := snap.Route(src, dst)
				if err != nil {
					t.Errorf("route(%d,%d): %v", src, dst, err)
					return
				}
				want, err := routing.Route(ref, src, dst, 80*n)
				if err != nil {
					t.Errorf("reference route(%d,%d): %v", src, dst, err)
					return
				}
				if got.Length != want.Length || got.Hops != want.Hops || !reflect.DeepEqual(got.Path, want.Path) {
					t.Errorf("route(%d,%d) = %+v, reference %+v", src, dst, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	commit, request := routerBuilds()
	if commit != commit0 || request != request0+1 {
		t.Fatalf("router builds moved by commit %d, request %d; want exactly one, a request's",
			commit-commit0, request-request0)
	}
	if !snap.Routed() {
		t.Fatal("snapshot not routed after answering routes")
	}
	if snap.Build.RouterSec != 0 {
		t.Fatalf("a request-time build wrote Build.RouterSec = %v on a published snapshot", snap.Build.RouterSec)
	}
}

// TestRoutableIsWhereRouteAnswers: Routable is false exactly where Route
// answers ErrNoRouter — a flat-only warm start before its hydrate. No
// boot builds the router; the first Route on a Routable snapshot does.
func TestRoutableIsWhereRouteAnswers(t *testing.T) {
	built := buildTestSnapshot(t, 7)
	flat, err := OpenSnapshotFile(writeSnapshotV2File(t, t.TempDir(), built))
	if err != nil {
		t.Fatal(err)
	}
	hydrated, err := flat.Hydrate()
	if err != nil {
		t.Fatal(err)
	}
	defer hydrated.Close()
	for _, tc := range []struct {
		name     string
		snap     *Snapshot
		routable bool
	}{
		{"cold build", built, true},
		{"flat-only warm start", flat, false},
		{"hydrated", hydrated, true},
	} {
		if tc.snap.Routable() != tc.routable || tc.snap.Routed() {
			t.Errorf("%s: routable=%v routed=%v, want %v and no router yet", tc.name, tc.snap.Routable(), tc.snap.Routed(), tc.routable)
		}
		_, err := tc.snap.Route(0, 1)
		if noRouter := errors.Is(err, ErrNoRouter); noRouter == tc.routable || (tc.routable && err != nil) {
			t.Errorf("%s: Route err = %v with routable=%v", tc.name, err, tc.routable)
		}
		if tc.snap.Routed() != tc.routable {
			t.Errorf("%s: routed=%v after a Route, want %v", tc.name, tc.snap.Routed(), tc.routable)
		}
	}
}

// TestBuildPhasesWithinTotal: every phase of a cold build — the arena
// pack included — lies inside the stamped total, and a router a commit
// inherits, built before publication, extends the total by its own time.
func TestBuildPhasesWithinTotal(t *testing.T) {
	snap := buildTestSnapshot(t, 9)
	b := snap.Build
	if b.PackSec <= 0 || b.RouterSec != 0 {
		t.Fatalf("pack %v s, router %v s: a cold build times its pack and builds no router", b.PackSec, b.RouterSec)
	}
	for name, sec := range map[string]float64{
		"index": b.IndexSec, "labels": b.LabelsTotalSec, "overlay": b.OverlaySec,
		"router": b.RouterSec, "pack": b.PackSec,
		"serial": b.IndexSec + b.NetsSec + b.RadiiSec + b.PackingsSec + b.RingsSec + b.TriangulationSec + b.VerifySec + b.PackSec,
	} {
		if sec > b.TotalSec {
			t.Errorf("%s phase %v s exceeds the total %v s", name, sec, b.TotalSec)
		}
	}
	if _, err := snap.Route(0, 1); err != nil {
		t.Fatal(err)
	}
	next := buildTestSnapshot(t, 10)
	before := next.Build.TotalSec
	if err := next.InheritRouter(snap); err != nil {
		t.Fatal(err)
	}
	if r := next.Build.RouterSec; r <= 0 || next.Build.TotalSec < before+r-1e-9 {
		t.Fatalf("inherited router %v s: total went %v -> %v s", r, before, next.Build.TotalSec)
	}
}

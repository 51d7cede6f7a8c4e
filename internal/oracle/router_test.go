package oracle

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"rings/internal/routing"
)

// unrouted returns snap as a commit publishes it when nobody has asked
// for a route: restored around its own arena bytes, router left to the
// first Route.
func unrouted(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Routable() || fresh.Routed() {
		t.Fatalf("restored snapshot: routable=%v routed=%v, want a router that is yet to be built", fresh.Routable(), fresh.Routed())
	}
	return fresh
}

func routerBuilds() (boot, commit, request int64) {
	return mRouterBuilds.With(routerCauseBoot).Value(),
		mRouterBuilds.With(routerCauseCommit).Value(),
		mRouterBuilds.With(routerCauseRequest).Value()
}

// TestRouterBuiltOnceByConcurrentRoutes: sixteen goroutines route on a
// snapshot whose router nobody has built. One of them builds it, all of
// them answer exactly what routing.Route answers on a router built
// directly over the same index, and the build is counted once, as a
// request's. Run with -race -count=10.
func TestRouterBuiltOnceByConcurrentRoutes(t *testing.T) {
	snap := unrouted(t, buildTestSnapshot(t, 5))
	ref, err := routing.NewThm21Metric(snap.Idx, snap.Config.Delta)
	if err != nil {
		t.Fatal(err)
	}
	n := snap.N()
	boot0, commit0, request0 := routerBuilds()
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
	boot, commit, request := routerBuilds()
	if boot != boot0 || commit != commit0 || request != request0+1 {
		t.Fatalf("router builds moved by boot %d, commit %d, request %d; want exactly one, a request's",
			boot-boot0, commit-commit0, request-request0)
	}
	if !snap.Routed() {
		t.Fatal("snapshot not routed after answering routes")
	}
	if snap.Build.RouterSec != 0 {
		t.Fatalf("a request-time build wrote Build.RouterSec = %v on a published snapshot", snap.Build.RouterSec)
	}
}

// TestRoutableIsWhereRouteAnswers: Routable is false exactly where Route
// answers ErrNoRouter — a recipe that skips routing, and a flat-only
// warm start before its hydrate — built router or not.
func TestRoutableIsWhereRouteAnswers(t *testing.T) {
	built := buildTestSnapshot(t, 7)
	cfg := testConfig(7)
	cfg.SkipRouting = true
	skipped, err := BuildSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
		routed   bool
	}{
		{"cold build", built, true, true},
		{"-no-routing", skipped, false, false},
		{"flat-only warm start", flat, false, false},
		{"hydrated, before the boot forces it", hydrated, true, false},
	} {
		if tc.snap.Routable() != tc.routable || tc.snap.Routed() != tc.routed {
			t.Errorf("%s: routable=%v routed=%v, want %v %v", tc.name, tc.snap.Routable(), tc.snap.Routed(), tc.routable, tc.routed)
		}
		_, err := tc.snap.Route(0, 1)
		if noRouter := errors.Is(err, ErrNoRouter); noRouter == tc.routable || (tc.routable && err != nil) {
			t.Errorf("%s: Route err = %v with routable=%v", tc.name, err, tc.routable)
		}
		if err := tc.snap.ForceRouter(); err != nil || tc.snap.Routed() != tc.routable {
			t.Errorf("%s: ForceRouter err = %v, routed=%v", tc.name, err, tc.snap.Routed())
		}
	}
}

// TestBuildPhasesWithinTotal: every phase of a cold build — the arena
// pack included — lies inside the stamped total, and a router built
// afterwards, before publication, extends the total by its own time.
func TestBuildPhasesWithinTotal(t *testing.T) {
	snap := buildTestSnapshot(t, 9)
	b := snap.Build
	if b.PackSec <= 0 || b.RouterSec <= 0 {
		t.Fatalf("pack %v s, router %v s: a cold build times both", b.PackSec, b.RouterSec)
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
	late := unrouted(t, snap)
	before := late.Build.TotalSec
	if err := late.ForceRouter(); err != nil {
		t.Fatal(err)
	}
	if r := late.Build.RouterSec; r <= 0 || late.Build.TotalSec < before+r-1e-9 {
		t.Fatalf("forced router %v s: total went %v -> %v s", r, before, late.Build.TotalSec)
	}
}

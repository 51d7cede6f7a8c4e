package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rings/internal/oracle"
)

func testEngine(t *testing.T) *oracle.Engine {
	t.Helper()
	snap, err := oracle.BuildSnapshot(oracle.Config{
		Workload: "cube",
		N:        48,
		Seed:     1,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return oracle.NewEngine(snap, oracle.EngineOptions{})
}

func getJSON(t *testing.T, ts *testServer, path string, wantStatus int, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

func postJSON(t *testing.T, ts *testServer, path string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
}

func TestServerEndpoints(t *testing.T) { bothFrontends(t, testServerEndpoints) }

func testServerEndpoints(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()

	var health healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if !health.OK || health.N != 48 || health.Version != 1 || !health.Routing || !health.Overlay {
		t.Fatalf("healthz = %+v", health)
	}
	if !strings.HasPrefix(health.Workload, "cube-") {
		t.Errorf("workload name %q", health.Workload)
	}

	for _, p := range [][2]int{{3, 17}, {0, 47}, {3, 3}} {
		var est oracle.EstimateResult
		getJSON(t, ts, fmt.Sprintf("/estimate?u=%d&v=%d", p[0], p[1]), http.StatusOK, &est)
		direct, err := engine.Snapshot().Estimate(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if est.Lower != direct.Lower || est.Upper != direct.Upper || !est.OK || est.Version != 1 {
			t.Fatalf("estimate %v over HTTP %+v vs direct %+v", p, est, direct)
		}
	}

	var batch batchResponse
	postJSON(t, ts, "/batch", batchRequest{Pairs: []oracle.Pair{{U: 1, V: 2}, {U: 5, V: 9}}},
		http.StatusOK, &batch)
	if len(batch.Results) != 2 || !batch.Results[0].OK || !batch.Results[1].OK {
		t.Fatalf("batch = %+v", batch)
	}

	var near oracle.NearestResult
	getJSON(t, ts, "/nearest?target=11", http.StatusOK, &near)
	if near.Target != 11 || near.Member < 0 || len(near.Path) == 0 {
		t.Fatalf("nearest = %+v", near)
	}

	var route oracle.RouteResult
	getJSON(t, ts, "/route?src=0&dst=40", http.StatusOK, &route)
	if route.Src != 0 || route.Dst != 40 || route.Stretch < 1 || len(route.Path) == 0 {
		t.Fatalf("route = %+v", route)
	}

	var stats oracle.EngineStats
	getJSON(t, ts, "/stats", http.StatusOK, &stats)
	if stats.Version != 1 || stats.Endpoints["estimate"].Count == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestServerErrorStatuses(t *testing.T) { bothFrontends(t, testServerErrorStatuses) }

func testServerErrorStatuses(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()

	for _, path := range []string{
		"/estimate",              // missing params
		"/estimate?u=1&v=xyz",    // non-numeric
		"/estimate?u=1&v=999",    // out of range
		"/nearest?target=-2",     // out of range
		"/route?src=0&dst=10000", // out of range
	} {
		var body errorBody
		getJSON(t, ts, path, http.StatusBadRequest, &body)
		if body.Error == "" {
			t.Errorf("%s: empty error body", path)
		}
	}
	// A node id outside [0, n) is a client error with its machine code,
	// never a 5xx a client would retry.
	for _, path := range []string{"/estimate?u=-1&v=0", "/estimate?u=0&v=48", "/estimate?u=55&v=1"} {
		var body errorBody
		getJSON(t, ts, path, http.StatusBadRequest, &body)
		if body.Code != codeOutOfRange {
			t.Errorf("%s: code %q, want %q", path, body.Code, codeOutOfRange)
		}
	}

	postJSON(t, ts, "/batch", batchRequest{}, http.StatusBadRequest, nil)
	tooMany := batchRequest{Pairs: make([]oracle.Pair, maxBatchPairs+1)}
	postJSON(t, ts, "/batch", tooMany, http.StatusBadRequest, nil)

	// Method mismatches are 405 from the mux method patterns.
	resp, err := ts.Client().Post(ts.URL+"/estimate?u=1&v=2", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /estimate: status %d", resp.StatusCode)
	}
}

// TestRetiredSchemeFlagRefused: -scheme beacons makes run fail — so
// ringsrv exit 1 — with ErrSchemeRetired before it builds or opens
// anything, a snapshot file included.
func TestRetiredSchemeFlagRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.bin")
	savedFlags, savedArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = savedFlags, savedArgs })
	flag.CommandLine = flag.NewFlagSet("ringsrv", flag.ContinueOnError)
	os.Args = []string{"ringsrv", "-workload", "cube", "-n", "16", "-scheme", "beacons", "-snapshot-file", path}
	if err := run(); !errors.Is(err, oracle.ErrSchemeRetired) {
		t.Fatalf("ringsrv -scheme beacons: %v, want ErrSchemeRetired", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused boot touched its snapshot file: %v", err)
	}
}

func TestServerDisabledEndpointsAre501(t *testing.T) {
	bothFrontends(t, testServerDisabledEndpointsAre501)
}

func testServerDisabledEndpointsAre501(t *testing.T, start startFunc) {
	snap, err := oracle.BuildSnapshot(oracle.Config{
		Workload:    "cube",
		N:           32,
		Seed:        1,
		SkipOverlay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := start(newServer(oracle.NewEngine(snap, oracle.EngineOptions{})))
	defer ts.Close()

	getJSON(t, ts, "/nearest?target=1", http.StatusNotImplemented, nil)
	// Estimates still flow.
	var est oracle.EstimateResult
	getJSON(t, ts, "/estimate?u=0&v=1", http.StatusOK, &est)
	if !est.OK {
		t.Fatalf("estimate = %+v", est)
	}
	var health healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if health.Overlay {
		t.Errorf("healthz advertises the disabled /nearest: %+v", health)
	}
}

func TestServerSnapshotRebuildSwaps(t *testing.T) { bothFrontends(t, testServerSnapshotRebuildSwaps) }

func testServerSnapshotRebuildSwaps(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()

	var before oracle.EstimateResult
	getJSON(t, ts, "/estimate?u=1&v=2", http.StatusOK, &before)

	var snapResp snapshotResponse
	postJSON(t, ts, "/snapshot", snapshotRequest{Seed: 7}, http.StatusOK, &snapResp)
	if snapResp.Version != 2 || snapResp.N != 48 {
		t.Fatalf("snapshot response = %+v", snapResp)
	}
	if got := engine.Snapshot().Config.Seed; got != 7 {
		t.Errorf("rebuilt seed = %d, want 7", got)
	}

	var after oracle.EstimateResult
	getJSON(t, ts, "/estimate?u=1&v=2", http.StatusOK, &after)
	if after.Version != 2 {
		t.Errorf("post-swap estimate still at version %d", after.Version)
	}

	// Empty body: seed advances by one.
	resp, err := ts.Client().Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-body snapshot: status %d", resp.StatusCode)
	}
	if got := engine.Snapshot().Config.Seed; got != 8 {
		t.Errorf("seed after empty-body rebuild = %d, want 8", got)
	}

	var stats oracle.EngineStats
	getJSON(t, ts, "/stats", http.StatusOK, &stats)
	if stats.Swaps != 3 || stats.Version != 3 {
		t.Errorf("stats after rebuilds: %+v", stats)
	}
}

func TestServerConcurrentQueriesDuringRebuild(t *testing.T) {
	bothFrontends(t, testServerConcurrentQueriesDuringRebuild)
}

func testServerConcurrentQueriesDuringRebuild(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()

	done := make(chan error, 4)
	for c := 0; c < 4; c++ {
		go func(c int) {
			for i := 0; i < 40; i++ {
				u, v := (c*13+i)%48, (i*7)%48
				resp, err := ts.Client().Get(fmt.Sprintf("%s/estimate?u=%d&v=%d", ts.URL, u, v))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("estimate during rebuild: status %d", resp.StatusCode)
					return
				}
			}
			done <- nil
		}(c)
	}
	postJSON(t, ts, "/snapshot", snapshotRequest{Seed: 5}, http.StatusOK, nil)
	for c := 0; c < 4; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerExposesBuildStats: the per-phase build breakdown of the
// served snapshot travels through both /stats and /snapshot, and the
// /snapshot response describes the snapshot it just built (a fresh
// breakdown, not the old one). A boot builds no router, so its phase
// reads 0.
func TestServerExposesBuildStats(t *testing.T) { bothFrontends(t, testServerExposesBuildStats) }

func testServerExposesBuildStats(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()

	var stats oracle.EngineStats
	getJSON(t, ts, "/stats", http.StatusOK, &stats)
	b := stats.Build
	if b.N != 48 || b.Scheme != oracle.SchemeLabels || b.Workers < 1 {
		t.Fatalf("stats.build = %+v", b)
	}
	if b.TotalSec <= 0 || b.LabelsTotalSec <= 0 || b.OverlaySec <= 0 {
		t.Fatalf("stats.build phases not populated: %+v", b)
	}
	if b.RouterSec != 0 {
		t.Fatalf("stats.build router_sec = %v; no boot builds the router", b.RouterSec)
	}
	if sum := b.ZSetsSec + b.TSetsSec + b.HostEnumsSec + b.LabelFillSec; sum <= 0 || sum > b.LabelsTotalSec {
		t.Fatalf("label sub-phases %v inconsistent with total %v", sum, b.LabelsTotalSec)
	}

	var snapResp snapshotResponse
	postJSON(t, ts, "/snapshot", snapshotRequest{Seed: 9}, http.StatusOK, &snapResp)
	if snapResp.Build.N != 48 || snapResp.Build.TotalSec <= 0 {
		t.Fatalf("snapshot.build = %+v", snapResp.Build)
	}
	if snapResp.Build.TotalSec > snapResp.BuildSec {
		t.Fatalf("phase total %v exceeds build_sec %v", snapResp.Build.TotalSec, snapResp.BuildSec)
	}

	// The engine now serves the rebuilt snapshot's breakdown.
	getJSON(t, ts, "/stats", http.StatusOK, &stats)
	if stats.Version != snapResp.Version || stats.Build.TotalSec != snapResp.Build.TotalSec {
		t.Fatalf("stats after swap: version %d build %+v, want version %d build %+v",
			stats.Version, stats.Build, snapResp.Version, snapResp.Build)
	}
}

// TestBatchBodyUnchangedByPooling: /batch answers into pooled scratch
// memory, and the body must stay exactly what encoding/json makes of the
// engine's own batch answer — across a large batch followed by a small
// one (stale pooled results must never leak into a shorter response)
// and across concurrent callers sharing the pool.
func TestBatchBodyUnchangedByPooling(t *testing.T) { bothFrontends(t, testBatchBodyUnchangedByPooling) }

func testBatchBodyUnchangedByPooling(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()

	check := func(size, salt int) error {
		pairs := make([]oracle.Pair, size)
		for i := range pairs {
			pairs[i] = oracle.Pair{U: (i*7 + salt) % 48, V: (i*13 + 5*salt) % 48}
		}
		want, err := engine.EstimateBatch(pairs)
		if err != nil {
			return err
		}
		wantBody, err := json.Marshal(batchResponse{Results: want})
		if err != nil {
			return err
		}
		reqBody, err := json.Marshal(batchRequest{Pairs: pairs})
		if err != nil {
			return err
		}
		resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var got bytes.Buffer
		if _, err := got.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" ||
			!bytes.Equal(got.Bytes(), append(wantBody, '\n')) {
			return fmt.Errorf("batch of %d: status %d, body %q, want %q", size, resp.StatusCode, got.Bytes(), wantBody)
		}
		return nil
	}
	for _, size := range []int{256, 3, 1, 64} {
		if err := check(size, 0); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func(g int) {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				err = check(1+(g*37+i*11)%200, g)
			}
			errs <- err
		}(g)
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

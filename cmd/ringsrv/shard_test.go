package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"rings/internal/oracle"
	"rings/internal/shard"
)

func testFleet(t *testing.T, churn bool) *shard.Fleet {
	t.Helper()
	fleet, err := shard.NewFleet(shard.Config{
		Oracle: oracle.Config{Workload: "cube", N: 48, Seed: 1, MemberStride: 3},
		Shards: 3,
		Churn:  churn,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

func testFleetServer(t *testing.T, start startFunc, churn bool) (*shard.Fleet, *testServer) {
	t.Helper()
	fleet := testFleet(t, churn)
	ts := start(newFleetServer(fleet, 1))
	t.Cleanup(ts.Close)
	return fleet, ts
}

func TestFleetServerEndpoints(t *testing.T) { bothFrontends(t, testFleetServerEndpoints) }

func testFleetServerEndpoints(t *testing.T, start startFunc) {
	fleet, ts := testFleetServer(t, start, false)

	var health healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if !health.OK || health.N != 48 || health.Shards != 3 || health.Universe != 48 {
		t.Fatalf("healthz = %+v", health)
	}

	// Intra pair (same residue mod 3): delegated, attributed, and
	// byte-identical to the shard snapshot's direct answer.
	var est shard.EstimateResult
	getJSON(t, ts, "/estimate?u=3&v=9", http.StatusOK, &est)
	if est.Cross || est.UShard != 0 || est.VShard != 0 {
		t.Fatalf("intra estimate = %+v", est)
	}
	direct, err := fleet.Estimate(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if est.Lower != direct.Lower || est.Upper != direct.Upper {
		t.Fatalf("estimate over HTTP %+v vs direct %+v", est, direct)
	}

	// Cross pair: beacon-tier answer, flagged.
	getJSON(t, ts, "/estimate?u=3&v=10", http.StatusOK, &est)
	if !est.Cross || est.UShard == est.VShard || !est.OK || est.Upper <= 0 {
		t.Fatalf("cross estimate = %+v", est)
	}

	// Batch mixes intra and cross.
	var batch fleetBatchResponse
	postJSON(t, ts, "/batch", batchRequest{Pairs: []oracle.Pair{{U: 1, V: 4}, {U: 1, V: 5}}},
		http.StatusOK, &batch)
	if len(batch.Results) != 2 || batch.Results[0].Cross || !batch.Results[1].Cross {
		t.Fatalf("batch = %+v", batch)
	}

	// Nearest delegates to the owning shard; route within a shard
	// works, across shards is 501 with the machine-readable code.
	var near shard.NearestResult
	getJSON(t, ts, "/nearest?target=7", http.StatusOK, &near)
	if near.Shard != 7%3 || near.Target != 7 {
		t.Fatalf("nearest = %+v", near)
	}
	var route shard.RouteResult
	getJSON(t, ts, "/route?src=0&dst=6", http.StatusOK, &route)
	if route.Shard != 0 || route.Stretch < 1 {
		t.Fatalf("route = %+v", route)
	}
	resp, err := ts.Client().Get(ts.URL + "/route?src=0&dst=1")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decodeBody(t, resp, &eb)
	if resp.StatusCode != http.StatusNotImplemented || eb.Code != codeCrossShard {
		t.Fatalf("cross route: status %d body %+v", resp.StatusCode, eb)
	}

	// /snapshot is refused in fleet mode.
	resp, err = ts.Client().Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &eb)
	if resp.StatusCode != http.StatusNotImplemented || eb.Code != codeNotImplemented {
		t.Fatalf("fleet snapshot: status %d body %+v", resp.StatusCode, eb)
	}

	// Fleet stats aggregate per-shard engines; ?shard narrows.
	var stats shard.FleetStats
	getJSON(t, ts, "/stats", http.StatusOK, &stats)
	if stats.Shards != 3 || stats.N != 48 || len(stats.PerShard) != 3 || stats.Requests == 0 {
		t.Fatalf("fleet stats = %+v", stats)
	}
	var es oracle.EngineStats
	getJSON(t, ts, "/stats?shard=1", http.StatusOK, &es)
	if es.Version != 1 || es.Build.N != 16 {
		t.Fatalf("shard stats = %+v", es)
	}
	getJSON(t, ts, "/stats?shard=9", http.StatusBadRequest, nil)

	// Churn endpoints are 501 on a fleet built without churn.
	resp, err = ts.Client().Post(ts.URL+"/join", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("join without churn: status %d", resp.StatusCode)
	}
	var cs churnStatsBody
	getJSON(t, ts, "/churn/stats", http.StatusOK, &cs)
	if cs.Enabled {
		t.Fatalf("churn stats without churn = %+v", cs)
	}
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestFleetServerChurnRouting(t *testing.T) { bothFrontends(t, testFleetServerChurnRouting) }

func testFleetServerChurnRouting(t *testing.T, start startFunc) {
	fleet, ts := testFleetServer(t, start, true)
	if fleet.Universe() != 96 {
		t.Fatalf("universe = %d", fleet.Universe())
	}

	// Explicit join of a dormant base routes to its owner (71 mod 3 = 2).
	base := 71
	var resp fleetChurnResponse
	postJSON(t, ts, "/join", joinRequest{Base: &base}, http.StatusOK, &resp)
	if resp.N != 49 || len(resp.Commits) != 1 || resp.Commits[0].Shard != 2 {
		t.Fatalf("join response = %+v", resp)
	}
	if fleet.ShardN(2) != 17 {
		t.Fatalf("shard 2 n = %d after join", fleet.ShardN(2))
	}

	// The joined node serves estimates immediately.
	var est shard.EstimateResult
	getJSON(t, ts, "/estimate?u=71&v=1", http.StatusOK, &est)
	if !est.Cross || est.UShard != 2 {
		t.Fatalf("estimate from joined node = %+v", est)
	}

	// Leave it again; the id stops serving with the out_of_range code.
	postJSON(t, ts, "/leave", leaveRequest{Base: &base}, http.StatusOK, &resp)
	if resp.N != 48 || resp.Commits[0].Shard != 2 {
		t.Fatalf("leave response = %+v", resp)
	}
	r, err := ts.Client().Get(ts.URL + "/estimate?u=71&v=1")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decodeBody(t, r, &eb)
	if r.StatusCode != http.StatusBadRequest || eb.Code != codeOutOfRange {
		t.Fatalf("estimate of dormant node: status %d body %+v", r.StatusCode, eb)
	}

	// Auto join/leave pick something and report per-shard commits.
	postJSON(t, ts, "/join", joinRequest{Count: 3}, http.StatusOK, &resp)
	if resp.N != 51 {
		t.Fatalf("auto join: %+v", resp)
	}
	postJSON(t, ts, "/leave", leaveRequest{Count: 2}, http.StatusOK, &resp)
	if resp.N != 49 {
		t.Fatalf("auto leave: %+v", resp)
	}

	var cs churnStatsBody
	getJSON(t, ts, "/churn/stats", http.StatusOK, &cs)
	if !cs.Enabled || cs.Fleet == nil || cs.Fleet.Joins != 4 || cs.Fleet.Leaves != 3 {
		t.Fatalf("churn stats = %+v fleet=%+v", cs, cs.Fleet)
	}
	for _, ss := range cs.Fleet.PerShard {
		if ss.Churn == nil {
			t.Fatalf("shard %d missing churn stats", ss.Shard)
		}
	}
}

package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"rings/internal/objects"
)

// TestObjectsEndpointsSingle drives the object-location surface over a
// static single engine: publish/lookup/unpublish round-trips, the
// 404/400 error taxonomy, the /healthz advertisement, and the
// rings_objects_* exposition.
func TestObjectsEndpointsSingle(t *testing.T) { bothFrontends(t, testObjectsEndpointsSingle) }

func testObjectsEndpointsSingle(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()

	var pub publishBody
	postJSON(t, ts, "/publish", publishRequest{Object: "x", Node: 3}, http.StatusOK, &pub)
	if pub.Object != "x" || pub.Node != 3 || pub.Stable != 3 || pub.Replicas != 1 {
		t.Fatalf("publish = %+v", pub)
	}
	postJSON(t, ts, "/publish", publishRequest{Object: "x", Node: 17}, http.StatusOK, &pub)
	if pub.Replicas != 2 {
		t.Fatalf("second publish = %+v", pub)
	}
	// Idempotent re-publish: still two replicas.
	postJSON(t, ts, "/publish", publishRequest{Object: "x", Node: 3}, http.StatusOK, &pub)
	if pub.Replicas != 2 {
		t.Fatalf("re-publish = %+v", pub)
	}

	// Every lookup answer must be the true nearest replica, bit-exact.
	snap := engine.Snapshot()
	for from := 0; from < snap.N(); from++ {
		var res lookupBody
		getJSON(t, ts, fmt.Sprintf("/lookup?object=x&from=%d", from), http.StatusOK, &res)
		wantNode, wantDist := 3, snap.Idx.Dist(3, from)
		if d := snap.Idx.Dist(17, from); d < wantDist {
			wantNode, wantDist = 17, d
		}
		if res.Node != wantNode || math.Float64bits(res.Dist) != math.Float64bits(wantDist) {
			t.Fatalf("lookup from %d: (%d, %v), want (%d, %v)", from, res.Node, res.Dist, wantNode, wantDist)
		}
		if res.Stable != res.Node || res.Replicas != 2 {
			t.Fatalf("lookup from %d: %+v", from, res)
		}
	}

	// Unknown object: 404 "not_found" — a name problem, not bad input.
	var eb errorBody
	getJSON(t, ts, "/lookup?object=nope&from=0", http.StatusNotFound, &eb)
	if eb.Code != codeNotFound {
		t.Fatalf("unknown lookup code %q", eb.Code)
	}
	postJSON(t, ts, "/unpublish", publishRequest{Object: "nope", Node: 0}, http.StatusNotFound, &eb)
	if eb.Code != codeNotFound {
		t.Fatalf("unknown unpublish code %q", eb.Code)
	}
	// Bad origin / holder: 400 taxonomy.
	getJSON(t, ts, "/lookup?object=x&from=99", http.StatusBadRequest, &eb)
	if eb.Code != codeOutOfRange {
		t.Fatalf("out-of-range lookup code %q", eb.Code)
	}
	postJSON(t, ts, "/unpublish", publishRequest{Object: "x", Node: 5}, http.StatusBadRequest, &eb)
	if eb.Code != codeNoReplica {
		t.Fatalf("no-replica unpublish code %q", eb.Code)
	}
	postJSON(t, ts, "/publish", publishRequest{Node: 1}, http.StatusBadRequest, &eb)
	if eb.Code != "" && eb.Error == "" {
		t.Fatalf("empty-name publish body %+v", eb)
	}

	postJSON(t, ts, "/unpublish", publishRequest{Object: "x", Node: 17}, http.StatusOK, &pub)
	if pub.Replicas != 1 {
		t.Fatalf("unpublish = %+v", pub)
	}

	var health healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if health.Objects == nil || !health.Objects.Ready ||
		health.Objects.Objects != 1 || health.Objects.Replicas != 1 {
		t.Fatalf("healthz objects = %+v", health.Objects)
	}

	var stats objectsStatsBody
	getJSON(t, ts, "/objects/stats", http.StatusOK, &stats)
	if stats.Fleet != nil || stats.Single == nil {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Single.Lookups != int64(snap.N()) || stats.Single.Misses != 0 {
		t.Fatalf("stats counters = %+v", stats.Single)
	}

	body := metricsText(t, ts)
	for _, name := range []string{
		"rings_objects_lookups_total", "rings_objects_replicas",
		"rings_objects_lookup_stretch", "rings_objects_republishes_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}

// TestObjectsEndpointsChurn proves the serving layer keeps the
// directory in lockstep with churn commits: retiring a replica's node
// re-publishes the object to the next-nearest survivor, visible through
// /healthz, and lookups stay servable in the current id currency.
func TestObjectsEndpointsChurn(t *testing.T) { bothFrontends(t, testObjectsEndpointsChurn) }

func testObjectsEndpointsChurn(t *testing.T, start startFunc) {
	srv, ts, m := testChurnServer(t, start)
	srv.enableObjects(objects.Config{Seed: 1, BaseDist: m.FrozenSpace().Base().Dist})

	snap := m.Snapshot()
	stable0 := int(snap.Perm[0])
	var pub publishBody
	postJSON(t, ts, "/publish", publishRequest{Object: "obj", Node: 0}, http.StatusOK, &pub)
	if pub.Stable != stable0 || pub.Replicas != 1 {
		t.Fatalf("publish = %+v (stable0=%d)", pub, stable0)
	}

	// Retire the only holder: the commit's repair hook must move the
	// replica rather than orphan the object.
	var leave churnResponse
	postJSON(t, ts, "/leave", map[string]any{"base": stable0}, http.StatusOK, &leave)

	var health healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if health.Objects == nil || health.Objects.Replicas != 1 || health.Objects.Republishes != 1 {
		t.Fatalf("healthz objects after leave = %+v", health.Objects)
	}

	cur := m.Snapshot()
	var res lookupBody
	getJSON(t, ts, "/lookup?object=obj&from=0", http.StatusOK, &res)
	if res.Node < 0 || res.Node >= cur.N() {
		t.Fatalf("lookup node %d outside current range [0, %d)", res.Node, cur.N())
	}
	// The answer's currencies must agree: Node is the current id of the
	// stable holder.
	if int(cur.Perm[res.Node]) != res.Stable {
		t.Fatalf("lookup node %d is stable %d, response said %d", res.Node, cur.Perm[res.Node], res.Stable)
	}
	if res.Stable == stable0 {
		t.Fatal("replica still on the retired node")
	}
}

// TestObjectsEndpointsFleet drives the same surface in fleet mode:
// global-id currency, cross-shard lookups equal to the fleet-wide brute
// force, shard attribution, and the aggregated stats body.
func TestObjectsEndpointsFleet(t *testing.T) { bothFrontends(t, testObjectsEndpointsFleet) }

func testObjectsEndpointsFleet(t *testing.T, start startFunc) {
	fleet, ts := testFleetServer(t, start, false)

	var pub publishBody
	for _, g := range []int{0, 3, 7} {
		postJSON(t, ts, "/publish", publishRequest{Object: "x", Node: g}, http.StatusOK, &pub)
	}
	if pub.Replicas != 3 || pub.Stable != 7 {
		t.Fatalf("publish = %+v", pub)
	}

	for _, from := range []int{0, 1, 2, 5, 10, 47} {
		var res lookupBody
		getJSON(t, ts, fmt.Sprintf("/lookup?object=x&from=%d", from), http.StatusOK, &res)
		wantNode, wantDist, err := fleet.TrueNearestObject("x", from)
		if err != nil {
			t.Fatal(err)
		}
		if res.Node != wantNode || math.Float64bits(res.Dist) != math.Float64bits(wantDist) {
			t.Fatalf("lookup from %d: (%d, %v), want (%d, %v)", from, res.Node, res.Dist, wantNode, wantDist)
		}
		if res.Shard == nil || *res.Shard != res.Node%3 {
			t.Fatalf("lookup from %d: shard attribution %+v", from, res)
		}
	}

	var eb errorBody
	getJSON(t, ts, "/lookup?object=nope&from=0", http.StatusNotFound, &eb)
	if eb.Code != codeNotFound {
		t.Fatalf("unknown lookup code %q", eb.Code)
	}

	var health healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if health.Objects == nil || !health.Objects.Ready ||
		health.Objects.Objects != 1 || health.Objects.Replicas != 3 {
		t.Fatalf("healthz objects = %+v", health.Objects)
	}

	var stats objectsStatsBody
	getJSON(t, ts, "/objects/stats", http.StatusOK, &stats)
	if stats.Single != nil || stats.Fleet == nil {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Fleet.Objects != 1 || stats.Fleet.Replicas != 3 || len(stats.Fleet.PerShard) != 3 {
		t.Fatalf("fleet stats = %+v", stats.Fleet)
	}

	if !strings.Contains(metricsText(t, ts), "rings_objects_lookups_total") {
		t.Fatal("/metrics missing rings_objects_lookups_total")
	}
}

func metricsText(t *testing.T, ts *testServer) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

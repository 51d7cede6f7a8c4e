package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rings/internal/oracle"
	"rings/internal/shard"
)

// testReplicatedFleetServer builds a K=2, R=2 fleet with fast
// recovery knobs behind the front-end under test.
func testReplicatedFleetServer(t *testing.T, start startFunc) (*shard.Fleet, *testServer) {
	t.Helper()
	fleet, err := shard.NewFleet(shard.Config{
		Oracle:            oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3, SkipOverlay: true},
		Shards:            2,
		Replicas:          2,
		ProbeInterval:     2 * time.Millisecond,
		BreakerThreshold:  2,
		BreakerBackoff:    2 * time.Millisecond,
		BreakerMaxBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	ts := start(newFleetServer(fleet, 1))
	t.Cleanup(ts.Close)
	return fleet, ts
}

// TestReplicaAdminAndDegradedHealth drives the kill/restart admin
// surface end to end: /replica kills a replica, /healthz reports
// degraded, queries keep flowing; killing the whole shard surfaces 503
// "unavailable" (never a silent fallback); restarts recover.
func TestReplicaAdminAndDegradedHealth(t *testing.T) {
	bothFrontends(t, testReplicaAdminAndDegradedHealth)
}

func testReplicaAdminAndDegradedHealth(t *testing.T, start startFunc) {
	fleet, ts := testReplicatedFleetServer(t, start)

	var roster replicaListBody
	getJSON(t, ts, "/replica", http.StatusOK, &roster)
	if roster.Replicas != 2 || roster.Down != 0 || len(roster.Roster) != 4 {
		t.Fatalf("healthy roster = %+v", roster)
	}

	var st shard.ReplicaStatus
	postJSON(t, ts, "/replica", replicaAdminRequest{Shard: 0, Replica: 1, Action: "kill"},
		http.StatusOK, &st)
	if !st.Down || st.State != "open" {
		t.Fatalf("killed replica status = %+v", st)
	}

	var health healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if !health.Degraded || health.ReplicasDown != 1 || health.Replicas != 2 {
		t.Fatalf("degraded healthz = %+v", health)
	}

	// Queries keep flowing (failover to the primary) — intra shard 0.
	var est shard.EstimateResult
	getJSON(t, ts, "/estimate?u=0&v=2", http.StatusOK, &est)
	if est.Cross {
		t.Fatalf("intra estimate = %+v", est)
	}

	// Kill the primary too: the whole shard is down. The server must
	// answer 503 "unavailable" — degraded, never wrong.
	postJSON(t, ts, "/replica", replicaAdminRequest{Shard: 0, Replica: 0, Action: "kill"},
		http.StatusOK, &st)
	resp, err := ts.Client().Get(ts.URL + "/estimate?u=0&v=2")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decodeBody(t, resp, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != codeUnavailable {
		t.Fatalf("dead shard over HTTP: status %d body %+v", resp.StatusCode, eb)
	}
	if eb.Error != shard.ErrShardDown.Error() {
		t.Fatalf("dead shard over HTTP: error %q, want %q", eb.Error, shard.ErrShardDown)
	}
	// Shard 1 still answers.
	getJSON(t, ts, "/estimate?u=1&v=3", http.StatusOK, &est)

	// Restart both; the prober resyncs and the fleet converges healthy.
	for r := 0; r < 2; r++ {
		postJSON(t, ts, "/replica", replicaAdminRequest{Shard: 0, Replica: r, Action: "restart"},
			http.StatusOK, &st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Fresh struct per poll: the healthy response omits its
		// zero-valued degraded fields, and json.Decode merges rather
		// than resetting, so reusing the degraded-phase struct would
		// keep the stale ReplicasDown:1 forever.
		health = healthBody{}
		getJSON(t, ts, "/healthz", http.StatusOK, &health)
		if !health.Degraded && health.ReplicasDown == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never recovered: %+v; roster: %+v", health, fleet.ReplicaStatuses())
		}
		time.Sleep(2 * time.Millisecond)
	}
	getJSON(t, ts, "/estimate?u=0&v=2", http.StatusOK, &est)

	// Unknown action and out-of-range addresses are client errors.
	postJSON(t, ts, "/replica", replicaAdminRequest{Shard: 0, Replica: 1, Action: "explode"},
		http.StatusBadRequest, nil)
	postJSON(t, ts, "/replica", replicaAdminRequest{Shard: 9, Replica: 0, Action: "kill"},
		http.StatusBadRequest, nil)
}

// TestReplicaAdminSingleEngine: without a fleet there is no roster.
func TestReplicaAdminSingleEngine(t *testing.T) { bothFrontends(t, testReplicaAdminSingleEngine) }

func testReplicaAdminSingleEngine(t *testing.T, start startFunc) {
	ts := start(newServer(testEngine(t)))
	defer ts.Close()
	getJSON(t, ts, "/replica", http.StatusNotImplemented, nil)
	postJSON(t, ts, "/replica", replicaAdminRequest{Action: "kill"}, http.StatusNotImplemented, nil)
}

// TestOverloadShedding proves the admission semaphore sheds instead of
// queuing: with a 1-slot limit held by a deliberately stalled request,
// further queries get an immediate 503 "overloaded" while /healthz
// (exempt) still answers.
func TestOverloadShedding(t *testing.T) { bothFrontends(t, testOverloadShedding) }

func testOverloadShedding(t *testing.T, start startFunc) {
	srv := newServer(testEngine(t))
	srv.enableLimits(1)
	ts := start(srv)
	defer ts.Close()

	// Occupy the only slot: a /batch whose body never finishes arriving
	// keeps its handler parked in the JSON decoder.
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	stalled := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		stalled <- err
	}()
	if _, err := pw.Write([]byte(`{"pairs":[`)); err != nil {
		t.Fatal(err)
	}

	// Poll only once the /batch holds the slot. A poll holding it when
	// the /batch is admitted would get the /batch shed instead — and that
	// 503 never arrives, because net/http drains the unfinished chunked
	// body before it answers — leaving nothing to shed the polls.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.inflight) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled /batch never took the one slot")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		resp, err := ts.Client().Get(ts.URL + "/estimate?u=0&v=1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			var eb errorBody
			decodeBody(t, resp, &eb)
			if eb.Code != codeOverloaded {
				t.Fatalf("shed with code %q, want %q", eb.Code, codeOverloaded)
			}
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("server never shed load with its one slot occupied")
		}
		time.Sleep(time.Millisecond)
	}

	// Liveness endpoints bypass admission.
	var health healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if !health.OK {
		t.Fatalf("healthz under overload = %+v", health)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(page), "rings_engine") {
		t.Fatalf("metrics under overload: status %d", resp.StatusCode)
	}

	// Release the stalled request; the slot frees and queries flow.
	pw.CloseWithError(io.ErrClosedPipe)
	<-stalled
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/estimate?u=0&v=1")
		if err != nil {
			t.Fatal(err)
		}
		ok := resp.StatusCode == http.StatusOK
		resp.Body.Close()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after the stalled request ended")
		}
		time.Sleep(time.Millisecond)
	}
}

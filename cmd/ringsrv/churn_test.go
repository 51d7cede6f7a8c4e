package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rings/internal/churn"
	"rings/internal/oracle"
)

func testChurnServer(t *testing.T, start startFunc) (*server, *testServer, *churn.Mutator) {
	t.Helper()
	m, err := churn.NewMutator(churn.Config{
		Oracle:   oracle.Config{Workload: "cube", N: 32, Seed: 1},
		MinNodes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := oracle.NewEngine(m.Snapshot(), oracle.EngineOptions{})
	srv := newServer(engine)
	srv.enableChurn(m, 7)
	ts := start(srv)
	t.Cleanup(ts.Close)
	return srv, ts, m
}

// TestChurnEndpoints drives /join and /leave end to end: every commit
// must swap a fresh version in, report the repair stats, and keep
// /healthz's n in lockstep with the mutator.
func TestChurnEndpoints(t *testing.T) { bothFrontends(t, testChurnEndpoints) }

func testChurnEndpoints(t *testing.T, start startFunc) {
	_, ts, m := testChurnServer(t, start)

	var h healthBody
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.N != 32 {
		t.Fatalf("initial n=%d", h.N)
	}

	var join churnResponse
	postJSON(t, ts, "/join", map[string]any{"count": 2}, http.StatusOK, &join)
	if join.N != 34 || len(join.Bases) != 2 {
		t.Fatalf("join response %+v", join)
	}
	if join.Repair.RepairedLabels <= 0 {
		t.Fatalf("join repaired nothing: %+v", join.Repair)
	}

	base := 3
	var leave churnResponse
	postJSON(t, ts, "/leave", map[string]any{"base": base}, http.StatusOK, &leave)
	if leave.N != 33 {
		t.Fatalf("leave response %+v", leave)
	}
	if leave.Version <= join.Version {
		t.Fatalf("leave version %d not after join version %d", leave.Version, join.Version)
	}
	if m.InternalOf(base) != -1 {
		t.Fatalf("base %d still active after leave", base)
	}

	// Random leave (no base) and a join of a specific dormant base.
	postJSON(t, ts, "/leave", nil, http.StatusOK, &leave)
	postJSON(t, ts, "/join", map[string]any{"base": base}, http.StatusOK, &join)
	if m.InternalOf(base) < 0 {
		t.Fatalf("base %d dormant after explicit join", base)
	}

	// Invalid ops are 400s, not commits.
	postJSON(t, ts, "/join", map[string]any{"base": base}, http.StatusBadRequest, nil)
	postJSON(t, ts, "/leave", map[string]any{"base": 9999}, http.StatusBadRequest, nil)

	var cs churnStatsBody
	getJSON(t, ts, "/churn/stats", http.StatusOK, &cs)
	if !cs.Enabled || cs.Stats == nil || cs.Stats.Commits != 4 {
		t.Fatalf("churn stats %+v", cs)
	}
	if cs.Stats.Joins != 3 || cs.Stats.Leaves != 2 {
		t.Fatalf("op counts %+v", cs.Stats)
	}

	// /snapshot rebuilds are refused under churn (they would desync the
	// engine from the mutator's membership).
	postJSON(t, ts, "/snapshot", nil, http.StatusConflict, nil)

	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.N != m.N() {
		t.Fatalf("healthz n=%d, mutator n=%d", h.N, m.N())
	}

	// Served answers come from the delta snapshot: estimate(u,u) is 0.
	var est oracle.EstimateResult
	getJSON(t, ts, "/estimate?u=5&v=5", http.StatusOK, &est)
	if est.Upper != 0 || !est.OK {
		t.Fatalf("estimate(5,5) = %+v", est)
	}
}

// TestChurnDisabled pins the 501 behavior without -churn.
func TestChurnDisabled(t *testing.T) { bothFrontends(t, testChurnDisabled) }

func testChurnDisabled(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()
	postJSON(t, ts, "/join", nil, http.StatusNotImplemented, nil)
	postJSON(t, ts, "/leave", nil, http.StatusNotImplemented, nil)
	var cs churnStatsBody
	getJSON(t, ts, "/churn/stats", http.StatusOK, &cs)
	if cs.Enabled {
		t.Fatal("churn reported enabled")
	}
}

// TestGracefulServeDrainsInFlight proves the shutdown path ringsrv's
// main loop uses: a request in flight when the context is canceled
// completes with 200, and gracefulServe returns nil (clean drain).
func TestGracefulServeDrainsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, "drained")
	})
	srv := &http.Server{Handler: mux}
	ctx, cancel := context.WithCancel(context.Background())

	served := make(chan error, 1)
	go func() {
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		select {
		case err := <-errc:
			served <- err
		case <-ctx.Done():
			shutdownCtx, cancelT := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancelT()
			if err := srv.Shutdown(shutdownCtx); err != nil {
				served <- err
				return
			}
			served <- nil
		}
	}()

	respc := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			respc <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			respc <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		respc <- nil
	}()

	<-inFlight // the request is being handled
	cancel()   // SIGTERM equivalent: shutdown begins mid-request
	if err := <-respc; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestGracefulServeHelper exercises gracefulServe itself on a real
// listener address (ListenAndServe needs an Addr).
func TestGracefulServeHelper(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gracefulServe(srv, ctx, 2*time.Second) }()
	// Wait for the listener, fire one request, cancel mid-flight.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()
	respc := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			respc <- err
			return
		}
		resp.Body.Close()
		respc <- nil
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-respc; err != nil {
		t.Fatalf("request during shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("gracefulServe: %v", err)
	}
}

// TestPersistOnSwap covers -snapshot-file: every churn commit persists,
// and the file warm-starts into a snapshot with the same membership.
func TestPersistOnSwap(t *testing.T) { bothFrontends(t, testPersistOnSwap) }

func testPersistOnSwap(t *testing.T, start startFunc) {
	srv, ts, m := testChurnServer(t, start)
	path := filepath.Join(t.TempDir(), "snap.bin")
	srv.enablePersist(path)

	var join churnResponse
	postJSON(t, ts, "/join", nil, http.StatusOK, &join)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("empty snapshot file")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := oracle.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if loaded.N() != m.N() {
		t.Fatalf("loaded n=%d, mutator n=%d", loaded.N(), m.N())
	}
	if loaded.Perm == nil {
		t.Fatal("churned snapshot persisted without its membership permutation")
	}
	// The restored membership is the live one, node for node.
	for u := 0; u < loaded.N(); u++ {
		if int(loaded.Perm[u]) != m.ActiveBase(u) {
			t.Fatalf("perm[%d] = %d, mutator has base %d", u, loaded.Perm[u], m.ActiveBase(u))
		}
	}
	// Write-read-write is byte-identical for churned snapshots too.
	second, err := os.CreateTemp(t.TempDir(), "resnap")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := loaded.WriteTo(second); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(second.Name())
	if len(a) == 0 || string(a) != string(b) {
		t.Fatalf("churned snapshot round trip not byte-identical (%d vs %d bytes)", len(a), len(b))
	}
}

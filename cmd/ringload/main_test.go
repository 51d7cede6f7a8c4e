package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// flakyServer answers /estimate with `fail` transient failures before
// succeeding (and everything else 200), counting attempts.
func flakyServer(t *testing.T, fail int, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := attempts.Add(1); n <= int64(fail) {
			w.WriteHeader(status)
			fmt.Fprint(w, `{"error":"injected","code":"unavailable"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"upper": 1.5, "lower": 1.0, "ok": true}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &attempts
}

// TestRetryRidesOutTransient: a query that 503s twice then succeeds is
// a success with retries=2 — the chaos-smoke contract (a replica
// restart must not surface client-visible errors).
func TestRetryRidesOutTransient(t *testing.T) {
	srv, attempts := flakyServer(t, 2, http.StatusServiceUnavailable)
	g := &generator{base: srv.URL, retries: 3}
	s := g.doRequest(srv.Client(), "estimate", 8, rand.New(rand.NewSource(1)))
	if s.err != nil || s.status != http.StatusOK {
		t.Fatalf("sample = %+v, want success after retries", s)
	}
	if s.retries != 2 || s.gaveUp {
		t.Fatalf("retries=%d gaveUp=%v, want 2/false", s.retries, s.gaveUp)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestRetryGivesUp: a persistently-503ing endpoint exhausts the budget
// and surfaces as an error with gaveUp set.
func TestRetryGivesUp(t *testing.T) {
	srv, attempts := flakyServer(t, 1<<30, http.StatusBadGateway)
	g := &generator{base: srv.URL, retries: 2}
	s := g.doRequest(srv.Client(), "estimate", 8, rand.New(rand.NewSource(1)))
	if s.err == nil {
		t.Fatalf("sample = %+v, want error after giving up", s)
	}
	if s.retries != 2 || !s.gaveUp {
		t.Fatalf("retries=%d gaveUp=%v, want 2/true", s.retries, s.gaveUp)
	}
	if got := attempts.Load(); got != 3 { // initial + 2 retries
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestRetrySkipsPermanentStatus: 501 is the server's contract answer
// (cross-shard route, disabled subsystem) — never retried; 400 is a
// client error — never retried.
func TestRetrySkipsPermanentStatus(t *testing.T) {
	for _, status := range []int{http.StatusNotImplemented, http.StatusBadRequest} {
		srv, attempts := flakyServer(t, 1<<30, status)
		g := &generator{base: srv.URL, retries: 3}
		s := g.doRequest(srv.Client(), "estimate", 8, rand.New(rand.NewSource(1)))
		if s.err == nil || s.retries != 0 || s.gaveUp {
			t.Fatalf("status %d: sample = %+v, want immediate error with no retries", status, s)
		}
		if got := attempts.Load(); got != 1 {
			t.Fatalf("status %d: server saw %d attempts, want 1", status, got)
		}
	}
}

// TestRetryDisabled: -retries 0 restores fail-fast (and never marks
// gaveUp, so the report distinguishes "no budget" from "exhausted").
func TestRetryDisabled(t *testing.T) {
	srv, attempts := flakyServer(t, 1<<30, http.StatusServiceUnavailable)
	g := &generator{base: srv.URL, retries: 0}
	s := g.doRequest(srv.Client(), "estimate", 8, rand.New(rand.NewSource(1)))
	if s.err == nil || s.retries != 0 || s.gaveUp {
		t.Fatalf("sample = %+v, want plain error", s)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}

// TestChurnNeverRetries: mutations are not idempotent; a transient
// failure on /join must surface after exactly one attempt.
func TestChurnNeverRetries(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	s, n := doChurn(srv.Client(), srv.URL, "join")
	if s.err == nil || n != 0 || s.retries != 0 {
		t.Fatalf("churn sample = %+v n=%d, want one failed attempt", s, n)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}

func statsServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestFetchServerLatenciesSingleEngine: a single engine's /stats body
// yields one Summary per touched endpoint; untouched endpoints (count
// 0) are dropped.
func TestFetchServerLatenciesSingleEngine(t *testing.T) {
	srv := statsServer(t, `{
		"endpoints": {
			"estimate": {"count": 120, "latency_us": {"count": 120, "p50": 3.5, "p95": 9, "p99": 14, "max": 20}},
			"nearest":  {"count": 0,   "latency_us": {}}
		}
	}`)
	got, err := fetchServerLatencies(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("want exactly the touched endpoint, got %v", got)
	}
	est, ok := got["estimate"]
	if !ok || est.P50 != 3.5 || est.P99 != 14 {
		t.Fatalf("estimate summary: %+v (present=%v)", est, ok)
	}
}

// TestFetchServerLatenciesFleet: a fleet's /stats nests one engine
// report per shard; keys carry the shard prefix because percentiles
// cannot be merged after the fact.
func TestFetchServerLatenciesFleet(t *testing.T) {
	srv := statsServer(t, `{
		"shards": 2,
		"per_shard": [
			{"shard": 0, "engine": {"endpoints": {"estimate": {"count": 10, "latency_us": {"count": 10, "p50": 2}}}}},
			{"shard": 1, "engine": {"endpoints": {"estimate": {"count": 12, "latency_us": {"count": 12, "p50": 4}}}}}
		]
	}`)
	got, err := fetchServerLatencies(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want one entry per shard, got %v", got)
	}
	if got["shard0/estimate"].P50 != 2 || got["shard1/estimate"].P50 != 4 {
		t.Fatalf("per-shard summaries: %v", got)
	}
}

// TestFetchServerLatenciesEmpty: a body with no touched endpoints is an
// error (the caller warns and omits the section) rather than an empty map
// that would serialize as a lie.
func TestFetchServerLatenciesEmpty(t *testing.T) {
	srv := statsServer(t, `{"endpoints": {}}`)
	if _, err := fetchServerLatencies(srv.Client(), srv.URL); err == nil {
		t.Fatal("empty stats body accepted")
	}
}

func traceServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/trace" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestFetchSlowQueries: the trace dump keeps the k slowest records,
// slowest first.
func TestFetchSlowQueries(t *testing.T) {
	srv := traceServer(t, `{
		"sample_rate": 4,
		"records": [
			{"endpoint": "estimate", "u": 1, "v": 2, "latency_us": 5},
			{"endpoint": "estimate", "u": 3, "v": 4, "latency_us": 90, "cross": true},
			{"endpoint": "estimate", "u": 5, "v": 6, "latency_us": 40}
		]
	}`)
	got, err := fetchSlowQueries(srv.Client(), srv.URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 records, got %v", got)
	}
	if got[0].LatencyUs != 90 || !got[0].Cross || got[1].LatencyUs != 40 {
		t.Fatalf("slowest-first order broken: %+v", got)
	}
}

// TestFetchSlowQueriesDisabled: a server with tracing off reports an
// actionable error instead of an empty dump.
func TestFetchSlowQueriesDisabled(t *testing.T) {
	srv := traceServer(t, `{"sample_rate": 0, "records": []}`)
	if _, err := fetchSlowQueries(srv.Client(), srv.URL, 3); err == nil {
		t.Fatal("disabled tracing accepted")
	}
}

package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rings/internal/oracle"
	"rings/internal/telemetry"
)

// scrapeMetrics fetches /metrics and returns the families after the
// strict exposition parser validated the page.
func scrapeMetrics(t *testing.T, ts *testServer) map[string]*telemetry.ParsedMetric {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	parsed, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: invalid exposition: %v", err)
	}
	return parsed
}

func sampleValue(t *testing.T, m *telemetry.ParsedMetric, labels map[string]string) float64 {
	t.Helper()
next:
	for _, s := range m.Samples {
		if s.Suffix != "" {
			continue
		}
		for k, v := range labels {
			if s.Labels[k] != v {
				continue next
			}
		}
		return s.Value
	}
	t.Fatalf("%s: no sample with labels %v", m.Name, labels)
	return 0
}

func TestMetricsSingleMode(t *testing.T) { bothFrontends(t, testMetricsSingleMode) }

func testMetricsSingleMode(t *testing.T, start startFunc) {
	srv := newServer(testEngine(t))
	ts := start(srv)
	t.Cleanup(ts.Close)

	getJSON(t, ts, "/estimate?u=1&v=2", http.StatusOK, nil)
	getJSON(t, ts, "/estimate?u=1&v=2", http.StatusOK, nil) // cache hit
	getJSON(t, ts, "/estimate?u=1&v=999", http.StatusBadRequest, nil)
	postJSON(t, ts, "/batch", batchRequest{Pairs: []oracle.Pair{{U: 1, V: 2}, {U: 3, V: 4}}}, http.StatusOK, nil)

	parsed := scrapeMetrics(t, ts)
	for _, name := range []string{
		"rings_build_info",
		"rings_engine_requests_total",
		"rings_engine_errors_total",
		"rings_engine_latency_us",
		"rings_engine_batch_pairs_total",
		"rings_engine_cache_events_total",
		"rings_engine_snapshot_version",
		"rings_audit_sampled_total",
		"rings_audit_realized_stretch",
		"rings_snapshot_persist_total",
		"rings_snapshot_open_us",
	} {
		if parsed[name] == nil {
			t.Errorf("/metrics: family %q missing", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if got := sampleValue(t, parsed["rings_engine_requests_total"], map[string]string{"endpoint": "estimate"}); got != 3 {
		t.Errorf("estimate requests = %v, want 3", got)
	}
	if got := sampleValue(t, parsed["rings_engine_errors_total"], map[string]string{"endpoint": "estimate"}); got != 1 {
		t.Errorf("estimate errors = %v, want 1", got)
	}
	if got := sampleValue(t, parsed["rings_engine_batch_pairs_total"], nil); got != 2 {
		t.Errorf("batch pairs = %v, want 2", got)
	}
	if got := sampleValue(t, parsed["rings_engine_cache_events_total"], map[string]string{"event": "hit"}); got < 1 {
		t.Errorf("cache hits = %v, want >= 1", got)
	}

	// Where the served arena's bytes are: the sections add up to the
	// arena, and fewer lists are stored than keys name.
	sections := parsed["rings_arena_section_bytes"]
	if sections == nil || parsed["rings_arena_keys"] == nil || parsed["rings_arena_distinct_lists"] == nil {
		t.Fatal("/metrics: arena accounting missing")
	}
	total := 0.0
	for _, smp := range sections.Samples {
		total += smp.Value
	}
	if arena := srv.engine.Snapshot().Flat.Bytes(); total != float64(arena) {
		t.Errorf("arena sections sum to %v bytes, the arena holds %d", total, arena)
	}
	if got := sampleValue(t, sections, map[string]string{"section": "ents"}); got <= 0 {
		t.Errorf("ents section = %v bytes", got)
	}
	keys := sampleValue(t, parsed["rings_arena_keys"], nil)
	lists := sampleValue(t, parsed["rings_arena_distinct_lists"], nil)
	if lists <= 0 || lists >= keys {
		t.Errorf("%v lists stored for %v keys", lists, keys)
	}
}

func TestMetricsFleetMode(t *testing.T) { bothFrontends(t, testMetricsFleetMode) }

func testMetricsFleetMode(t *testing.T, start startFunc) {
	_, ts := testFleetServer(t, start, false)

	getJSON(t, ts, "/estimate?u=3&v=9", http.StatusOK, nil) // intra (same shard mod 3)
	getJSON(t, ts, "/estimate?u=0&v=1", http.StatusOK, nil) // cross

	parsed := scrapeMetrics(t, ts)
	for _, name := range []string{
		"rings_build_info",
		"rings_fleet_estimates_total",
		"rings_fleet_beacon_width",
		"rings_fleet_nodes",
		"rings_audit_sampled_total",
		"shard0_rings_engine_requests_total",
		"shard1_rings_engine_requests_total",
		"shard2_rings_engine_requests_total",
		"shard0_rings_arena_section_bytes",
		"shard2_rings_arena_distinct_lists",
	} {
		if parsed[name] == nil {
			t.Errorf("/metrics: family %q missing", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if got := sampleValue(t, parsed["rings_fleet_estimates_total"], map[string]string{"path": "intra"}); got != 1 {
		t.Errorf("intra estimates = %v, want 1", got)
	}
	if got := sampleValue(t, parsed["rings_fleet_estimates_total"], map[string]string{"path": "cross"}); got != 1 {
		t.Errorf("cross estimates = %v, want 1", got)
	}
}

func TestTraceEndpoint(t *testing.T) { bothFrontends(t, testTraceEndpoint) }

func testTraceEndpoint(t *testing.T, start startFunc) {
	srv := newServer(testEngine(t))
	srv.enableTelemetry(2, 0) // every 2nd query traced
	ts := start(srv)
	t.Cleanup(ts.Close)

	for i := 0; i < 10; i++ {
		getJSON(t, ts, "/estimate?u=1&v=2", http.StatusOK, nil)
	}
	getJSON(t, ts, "/estimate?u=1&v=999", http.StatusBadRequest, nil)

	var body traceBody
	getJSON(t, ts, "/debug/trace", http.StatusOK, &body)
	if body.SampleRate != 2 {
		t.Fatalf("sample_rate = %d, want 2", body.SampleRate)
	}
	// 11 estimate calls at 1-in-2 → 5 records.
	if len(body.Records) != 5 {
		t.Fatalf("got %d trace records, want 5", len(body.Records))
	}
	for _, rec := range body.Records {
		if rec.Endpoint != "estimate" {
			t.Fatalf("trace endpoint = %q", rec.Endpoint)
		}
		if rec.Err == "" && (rec.U != 1 || rec.V != 2 || !rec.OK) {
			t.Fatalf("trace record = %+v", rec)
		}
	}

	var trimmed traceBody
	getJSON(t, ts, "/debug/trace?n=2", http.StatusOK, &trimmed)
	if len(trimmed.Records) != 2 {
		t.Fatalf("?n=2 returned %d records", len(trimmed.Records))
	}
	getJSON(t, ts, "/debug/trace?n=bogus", http.StatusBadRequest, nil)
}

// TestAuditorLabels drives an engine with audit sampling at 100% and
// requires every audited sandwich to contain the exact distance.
func TestAuditorLabels(t *testing.T) { bothFrontends(t, testAuditorLabels) }

func testAuditorLabels(t *testing.T, start startFunc) {
	snap, err := oracle.BuildSnapshot(oracle.Config{
		Workload: "cube",
		N:        64,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(oracle.NewEngine(snap, oracle.EngineOptions{}))
	srv.enableTelemetry(0, 1) // audit every served estimate
	ts := start(srv)
	t.Cleanup(ts.Close)

	for u := 0; u < 16; u++ {
		for v := u + 1; v < 16; v++ {
			getJSON(t, ts, fmt.Sprintf("/estimate?u=%d&v=%d", u, v), http.StatusOK, nil)
		}
	}
	pairs := make([]oracle.Pair, 0, 32)
	for i := 0; i < 32; i++ {
		pairs = append(pairs, oracle.Pair{U: 16 + i, V: 63 - i/2})
	}
	postJSON(t, ts, "/batch", batchRequest{Pairs: pairs}, http.StatusOK, nil)

	a := srv.auditor
	a.close() // drain the queue so every offered record is audited
	if a.sampled.Value() == 0 || a.audited.Value() == 0 {
		t.Fatalf("auditor idle: sampled=%d audited=%d", a.sampled.Value(), a.audited.Value())
	}
	if got := a.audited.Value() + a.skipped.Value() + a.dropped.Value(); got != a.sampled.Value() {
		t.Fatalf("audit accounting: audited+skipped+dropped=%d, sampled=%d", got, a.sampled.Value())
	}
	if v := a.violations.Value(); v != 0 {
		t.Fatalf("%d certified sandwiches violated (of %d audited)", v, a.audited.Value())
	}
	if a.stretch.Count() == 0 {
		t.Fatal("realized-stretch histogram empty after audits")
	}
}

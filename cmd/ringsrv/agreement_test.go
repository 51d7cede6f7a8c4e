package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rings/internal/oracle"
	"rings/internal/shard"
	"rings/internal/telemetry"
)

// series reads one sample off a parsed /metrics page: suffix "" for a
// counter or gauge, "_count"/"_sum" for a histogram; labels are
// key, value pairs.
func series(t *testing.T, page map[string]*telemetry.ParsedMetric, name, suffix string, labels ...string) int64 {
	t.Helper()
	m := page[name]
	if m == nil {
		t.Fatalf("/metrics: family %q missing", name)
	}
next:
	for _, s := range m.Samples {
		if s.Suffix != suffix {
			continue
		}
		for i := 0; i < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				continue next
			}
		}
		return int64(s.Value)
	}
	t.Fatalf("/metrics: no %s%s sample with labels %v", name, suffix, labels)
	return 0
}

// agree fails the test when a /stats figure and its /metrics series differ.
func agree(t *testing.T, what string, stats, metrics int64) {
	t.Helper()
	if stats != metrics {
		t.Errorf("%s: /stats says %d, /metrics says %d", what, stats, metrics)
	}
}

// hammer runs 8 concurrent clients over every query and object endpoint
// (ids deliberately overshoot n, so error counters move too) while
// during runs beside them — the mid-run swap or churn commit. Statuses
// are ignored: what matters is that both reports counted the same
// requests, whatever they answered.
func hammer(t *testing.T, ts *testServer, ids, iters int, during func()) {
	t.Helper()
	fire := func(method, path, body string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u, v := (c*31+i*7)%ids, (c*17+i*13+1)%ids
				fire("GET", fmt.Sprintf("/estimate?u=%d&v=%d", u, v), "")
				switch i % 6 {
				case 0:
					fire("POST", "/batch", fmt.Sprintf(`{"pairs":[{"u":%d,"v":%d},{"u":%d,"v":%d}]}`, u, v, v, u))
				case 1:
					fire("GET", fmt.Sprintf("/nearest?target=%d", u), "")
				case 2:
					fire("GET", fmt.Sprintf("/route?src=%d&dst=%d", u, v), "")
				case 3:
					fire("POST", "/publish", fmt.Sprintf(`{"object":"o%d","node":%d}`, i%3, u))
				case 4:
					fire("GET", fmt.Sprintf("/lookup?object=o%d&from=%d", i%4, v), "")
				case 5:
					fire("POST", "/unpublish", fmt.Sprintf(`{"object":"o%d","node":%d}`, i%3, u))
				}
			}
		}(c)
	}
	if during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			during()
		}()
	}
	wg.Wait()
}

// commitOne posts a one-node /join or /leave. It runs beside the clients,
// so it reports through t.Error.
func commitOne(t *testing.T, ts *testServer, path string) {
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(`{"count":1}`))
	if err != nil {
		t.Error(err)
		return
	}
	resp.Body.Close()
}

// agreeEngine checks one engine report against its (prefixed) series.
func agreeEngine(t *testing.T, who string, es oracle.EngineStats, page map[string]*telemetry.ParsedMetric, prefix string) {
	t.Helper()
	for name, ep := range es.Endpoints {
		agree(t, who+" "+name+" count", ep.Count, series(t, page, prefix+"rings_engine_requests_total", "", "endpoint", name))
		agree(t, who+" "+name+" errors", ep.Errors, series(t, page, prefix+"rings_engine_errors_total", "", "endpoint", name))
		agree(t, who+" "+name+" latency count", int64(ep.LatencyUs.Count), series(t, page, prefix+"rings_engine_latency_us", "_count", "endpoint", name))
	}
	agree(t, who+" swaps", es.Swaps, series(t, page, prefix+"rings_engine_swaps_total", ""))
}

// TestStatsAgreeWithMetrics: /stats, /churn/stats and /objects/stats are
// views of the registries /metrics exposes, so at quiescence every count
// they report equals its series — after concurrent traffic with swaps
// landing mid-run, under -race. (Before the reports became views, the
// latency summary's count was a reservoir's sample size: this run puts
// more than its 2,048 slots through /estimate.)
func TestStatsAgreeWithMetrics(t *testing.T) {
	t.Run("single", func(t *testing.T) { bothFrontends(t, testStatsAgreeSingle) })
	t.Run("fleet", func(t *testing.T) { bothFrontends(t, testStatsAgreeFleet) })
}

func testStatsAgreeSingle(t *testing.T, start startFunc) {
	_, ts, _ := testChurnServer(t, start)
	churn := func(path string) { commitOne(t, ts, path) }
	cacheEvents := func(page map[string]*telemetry.ParsedMetric) int64 {
		return series(t, page, "rings_engine_cache_events_total", "", "event", "hit") +
			series(t, page, "rings_engine_cache_events_total", "", "event", "miss")
	}
	// Segment 0: commits land while the clients run. From its end on,
	// every swap is made at rest with the closing era's cache report
	// read first, so the eras after it must add up to what the
	// cumulative series gained.
	hammer(t, ts, 40, 110, func() { churn("/join"); churn("/leave"); churn("/join") })
	base := cacheEvents(scrapeMetrics(t, ts))
	var eras int64
	for seg := 0; seg < 2; seg++ {
		churn("/leave")
		hammer(t, ts, 40, 110, nil)
		var es oracle.EngineStats
		getJSON(t, ts, "/stats", http.StatusOK, &es)
		eras += es.Cache.Hits + es.Cache.Misses
	}

	page := scrapeMetrics(t, ts)
	var es oracle.EngineStats
	getJSON(t, ts, "/stats", http.StatusOK, &es)
	agreeEngine(t, "engine", es, page, "")
	if n := es.Endpoints[oracle.EndpointEstimate].Count; n <= 2048 {
		t.Fatalf("only %d estimates: the run must outgrow the old reservoir", n)
	}
	agree(t, "cache hits+misses over the eras since segment 0", eras, cacheEvents(page)-base)

	var cs churnStatsBody
	getJSON(t, ts, "/churn/stats", http.StatusOK, &cs)
	agree(t, "churn joins", cs.Stats.Joins, series(t, page, "rings_churn_ops_total", "", "op", "join"))
	agree(t, "churn leaves", cs.Stats.Leaves, series(t, page, "rings_churn_ops_total", "", "op", "leave"))
	agree(t, "churn commits", cs.Stats.Commits, series(t, page, "rings_churn_commits_total", ""))
	agree(t, "churn full fallbacks", cs.Stats.FullFallbacks, series(t, page, "rings_churn_full_fallbacks_total", ""))
	agree(t, "churn repaired labels", cs.Stats.RepairedTotal, series(t, page, "rings_churn_repair_labels", "_sum"))
	if cs.Stats.Commits != 5 || es.Swaps != 6 {
		t.Errorf("5 commits made: churn reports %d, the engine %d swaps (want 6 with the boot install)", cs.Stats.Commits, es.Swaps)
	}

	var os objectsStatsBody
	getJSON(t, ts, "/objects/stats", http.StatusOK, &os)
	agree(t, "objects publishes", os.Single.Publishes, series(t, page, "rings_objects_publishes_total", ""))
	agree(t, "objects unpublishes", os.Single.Unpublishes, series(t, page, "rings_objects_unpublishes_total", ""))
	agree(t, "objects republishes", os.Single.Republishes, series(t, page, "rings_objects_republishes_total", ""))
	agree(t, "objects lookups", os.Single.Lookups, series(t, page, "rings_objects_lookups_total", ""))
	agree(t, "objects not found", os.Single.NotFound, series(t, page, "rings_objects_lookup_not_found_total", ""))
	agree(t, "objects misses", os.Single.Misses, series(t, page, "rings_objects_lookup_misses_total", ""))
	if os.Single.Lookups == 0 || os.Single.Publishes == 0 {
		t.Errorf("object traffic never landed: %+v", *os.Single)
	}
}

func testStatsAgreeFleet(t *testing.T, start startFunc) {
	fleet, ts := testFleetServer(t, start, true)
	churn := func(path string) { commitOne(t, ts, path) }
	hammer(t, ts, fleet.Universe()+4, 60, func() { churn("/leave"); churn("/join"); churn("/leave") })

	page := scrapeMetrics(t, ts)
	var st shard.FleetStats
	getJSON(t, ts, "/stats", http.StatusOK, &st)
	agree(t, "fleet intra", st.Intra, series(t, page, "rings_fleet_estimates_total", "", "path", "intra"))
	agree(t, "fleet cross", st.Cross, series(t, page, "rings_fleet_estimates_total", "", "path", "cross"))
	agree(t, "fleet joins", st.Joins, series(t, page, "rings_fleet_churn_ops_total", "", "op", "join"))
	agree(t, "fleet leaves", st.Leaves, series(t, page, "rings_fleet_churn_ops_total", "", "op", "leave"))
	agree(t, "fleet epoch retries", st.EpochRetries, series(t, page, "rings_fleet_epoch_retries_total", ""))
	if st.Intra == 0 || st.Cross == 0 || st.Joins+st.Leaves != 3 {
		t.Errorf("fleet traffic never landed: %+v", st)
	}
	var requests, errs int64
	for i, ss := range st.PerShard {
		prefix := fmt.Sprintf("shard%d_", i)
		agreeEngine(t, prefix+"engine", ss.Engine, page, prefix)
		agree(t, prefix+"churn joins", ss.Churn.Joins, series(t, page, prefix+"rings_churn_ops_total", "", "op", "join"))
		agree(t, prefix+"churn leaves", ss.Churn.Leaves, series(t, page, prefix+"rings_churn_ops_total", "", "op", "leave"))
		agree(t, prefix+"churn commits", ss.Churn.Commits, series(t, page, prefix+"rings_churn_commits_total", ""))
		for _, name := range []string{oracle.EndpointEstimate, oracle.EndpointBatch, oracle.EndpointNearest, oracle.EndpointRoute, oracle.EndpointSwap} {
			requests += series(t, page, prefix+"rings_engine_requests_total", "", "endpoint", name)
			errs += series(t, page, prefix+"rings_engine_errors_total", "", "endpoint", name)
		}
	}
	agree(t, "fleet requests", st.Requests, requests)
	agree(t, "fleet errors", st.Errors, errs)

	var os objectsStatsBody
	getJSON(t, ts, "/objects/stats", http.StatusOK, &os)
	agree(t, "fleet objects publishes", os.Fleet.Publishes, series(t, page, "rings_objects_publishes_total", ""))
	agree(t, "fleet objects unpublishes", os.Fleet.Unpublishes, series(t, page, "rings_objects_unpublishes_total", ""))
	agree(t, "fleet objects republishes", os.Fleet.Republishes, series(t, page, "rings_objects_republishes_total", ""))
	agree(t, "fleet objects lookups", os.Fleet.Lookups, series(t, page, "rings_objects_lookups_total", ""))
	agree(t, "fleet objects not found", os.Fleet.NotFound, series(t, page, "rings_objects_lookup_not_found_total", ""))
	agree(t, "fleet objects misses", os.Fleet.Misses, series(t, page, "rings_objects_lookup_misses_total", ""))
	agree(t, "fleet objects remote pruned", os.Fleet.RemotePruned, series(t, page, "rings_objects_remote_pruned_total", ""))
	agree(t, "fleet objects remote refined", os.Fleet.RemoteRefined, series(t, page, "rings_objects_remote_refined_total", ""))
}

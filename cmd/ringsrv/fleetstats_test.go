package main

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"rings/internal/oracle"
	"rings/internal/shard"
)

// TestFleetStatsAggregationConcurrent hammers a fleet with concurrent
// estimate traffic while /stats and /metrics are scraped mid-flight
// (torn reads surface under -race), then checks that the per-shard
// counters sum exactly to the fleet aggregation and that ?shard=i
// matches the aggregate's per-shard entry.
func TestFleetStatsAggregationConcurrent(t *testing.T) {
	bothFrontends(t, testFleetStatsAggregationConcurrent)
}

func testFleetStatsAggregationConcurrent(t *testing.T, start startFunc) {
	fleet, ts := testFleetServer(t, start, false)
	const workers = 8
	const perWorker = 40

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := (w*perWorker + i) % 47
				v := (u + 1 + i%17) % 48
				if u == v {
					v = (v + 1) % 48
				}
				resp, err := ts.Client().Get(fmt.Sprintf("%s/estimate?u=%d&v=%d", ts.URL, u, v))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("estimate u=%d v=%d: status %d", u, v, resp.StatusCode)
					return
				}
			}
		}()
	}
	// Scrape both surfaces while the load runs: values are moving, so
	// only well-formedness is checked here.
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var st shard.FleetStats
			getJSON(t, ts, "/stats", http.StatusOK, &st)
			scrapeMetrics(t, ts)
		}
	}()
	wg.Wait()
	close(stop)
	scraper.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var st shard.FleetStats
	getJSON(t, ts, "/stats", http.StatusOK, &st)
	if got := st.Intra + st.Cross; got != workers*perWorker {
		t.Fatalf("intra+cross = %d, want %d", got, workers*perWorker)
	}
	if len(st.PerShard) != fleet.K() {
		t.Fatalf("per_shard has %d entries, want %d", len(st.PerShard), fleet.K())
	}
	// Only intra estimates touch a shard engine; the per-shard endpoint
	// counters must sum exactly to the aggregate.
	var sumEstimates, sumRequests int64
	for _, ss := range st.PerShard {
		sumEstimates += ss.Engine.Endpoints[oracle.EndpointEstimate].Count
		for _, ep := range ss.Engine.Endpoints {
			sumRequests += ep.Count
		}
	}
	if sumEstimates != st.Intra {
		t.Fatalf("per-shard estimate counts sum to %d, fleet intra = %d", sumEstimates, st.Intra)
	}
	if sumRequests != st.Requests {
		t.Fatalf("per-shard request counts sum to %d, fleet requests = %d", sumRequests, st.Requests)
	}
	// ?shard=i narrows to the same engine the aggregate reported.
	for i := 0; i < fleet.K(); i++ {
		var es oracle.EngineStats
		getJSON(t, ts, fmt.Sprintf("/stats?shard=%d", i), http.StatusOK, &es)
		want := st.PerShard[i].Engine.Endpoints[oracle.EndpointEstimate].Count
		if got := es.Endpoints[oracle.EndpointEstimate].Count; got != want {
			t.Fatalf("shard %d: ?shard estimate count %d != aggregate %d", i, got, want)
		}
	}
}

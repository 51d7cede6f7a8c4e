// Command ringload is the closed-loop load generator for cmd/ringsrv:
// a configurable number of clients issue queries back-to-back (each
// client waits for its response before sending the next request) against
// a running server, drawn from a weighted endpoint mix, for a fixed
// duration. It reports per-endpoint throughput and latency percentiles,
// and exits non-zero if any request failed or returned a non-200 status
// — which is what lets CI use it as an end-to-end smoke check.
//
//	ringload -addr http://127.0.0.1:8390 -clients 8 -duration 5s
//	ringload -addr http://127.0.0.1:8390 -mix estimate=6,batch=1,nearest=2,route=1 -json
//	ringload -addr http://127.0.0.1:8390 -churn 3 -clients 4 -duration 5s
//
// The node-id range and the set of endpoints the server actually offers
// are discovered from /healthz; mix entries for endpoints the snapshot
// does not serve are dropped with a warning.
//
// Against a sharded server (ringsrv -shards K; /healthz advertises the
// shard count and the global id universe) ringload drives a mixed
// intra/cross-shard workload: -cross sets the fraction of estimate and
// batch pairs whose endpoints live in different shards (cross-shard
// estimates show up as the "estimate-x" report row, so the split is
// visible per endpoint), routes always stay within one shard (the
// fleet answers cross-shard routes 501 by contract), and under churn
// the batch version check is applied per owning shard.
//
// -churn RATE drives the server's churn admin endpoints (POST /join,
// POST /leave, needs ringsrv -churn) at RATE mutations per second while
// the query clients keep running — the end-to-end smoke of the
// incremental repair + delta-swap path. In churn mode ringload also
// verifies what it can from the protocol alone: every /batch response
// must carry one consistent snapshot version across its results, and
// every estimate with u == v must answer exactly zero; a violation is
// an "estimate mismatch" and fails the run. Because the node-id range
// shrinks on /leave, a query racing a swap can 400 with the
// machine-readable code "out_of_range" (and mutations can bounce off
// "at_capacity"/"below_floor"); those are counted as tolerated churn
// races, not errors (every other non-200 still fails the run).
//
// Queries ride a retry loop tuned for replicated fleets: a transport
// error or a transient 5xx (a shed "overloaded" 503, a mid-restart
// shard's "unavailable" 503 — anything but the permanent 501) is
// retried up to -retries times with exponential backoff (25ms, 50ms,
// ... plus jitter), each attempt a fresh request. A query that
// eventually succeeds counts its attempts under "retries" in the
// report; one that exhausts its budget counts under "gave_up" and is
// an error. Mutations (/join, /leave) never retry: they are not
// idempotent, and replaying one that may have landed would
// double-apply it.
//
// After the run the report is augmented with the server's own view:
// /stats latency summaries (a scrape failure is recorded as
// "server_stats_error" in -json output and warned on stderr), and with
// -trace K the K slowest sampled queries from the server's
// /debug/trace ring (needs ringsrv -trace-sample).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ringload:", err)
		os.Exit(1)
	}
}

// health mirrors ringsrv's /healthz body (kept in sync by the CI smoke
// run; ringload deliberately has no compile-time dependency on the
// server so it can drive any deployment speaking the same protocol).
// Shards/Universe are set by sharded servers: ids are then global with
// owner = id mod Shards, drawn from [0, Universe) (under churn only a
// subset is active, so out-of-range answers are expected races).
type health struct {
	OK       bool   `json:"ok"`
	Version  int64  `json:"version"`
	N        int    `json:"n"`
	Workload string `json:"workload"`
	Routing  bool   `json:"routing"`
	Overlay  bool   `json:"overlay"`
	Shards   int    `json:"shards"`
	Universe int    `json:"universe"`
	// Objects advertises the object-location layer; absent on servers
	// without it, which disables -objects with a warning.
	Objects *objHealth `json:"objects"`
}

// sample is one completed request.
type sample struct {
	endpoint  string
	latencyMs float64
	status    int
	err       error
	// stale marks a 400 caused by a node id that fell out of range
	// under churn — an expected race with a shrink swap, not a failure.
	stale bool
	// retries counts extra attempts this request needed (transport
	// errors and transient 5xx answers); gaveUp marks a request that
	// was still failing transiently when the retry budget ran out.
	retries int
	gaveUp  bool
}

// mixEntry is one weighted endpoint of the query mix.
type mixEntry struct {
	endpoint string
	weight   int
}

func parseMix(raw string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightRaw, found := strings.Cut(part, "=")
		weight := 1
		if found {
			w, err := strconv.Atoi(weightRaw)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
			weight = w
		}
		switch name {
		case "estimate", "batch", "nearest", "route":
		default:
			return nil, fmt.Errorf("unknown mix endpoint %q (want estimate|batch|nearest|route)", name)
		}
		if weight > 0 {
			mix = append(mix, mixEntry{endpoint: name, weight: weight})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty query mix")
	}
	return mix, nil
}

func run() error {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8390", "server base URL")
		clients   = flag.Int("clients", 8, "concurrent closed-loop clients")
		duration  = flag.Duration("duration", 5*time.Second, "how long to generate load")
		mixRaw    = flag.String("mix", "estimate=6,batch=1,nearest=2,route=1", "weighted endpoint mix")
		batchSize = flag.Int("batch", 16, "pairs per /batch request")
		seed      = flag.Int64("seed", 1, "query-stream seed")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		churnRate = flag.Float64("churn", 0, "mutations per second against /join and /leave (0 disables; needs ringsrv -churn)")
		joinBias  = flag.Float64("churn-bias", 0.5, "probability a mutation is a join")
		crossFrac = flag.Float64("cross", 0.5, "fraction of estimate/batch pairs spanning shards (sharded servers only)")
		retries   = flag.Int("retries", 3, "max retries per query on transport errors and transient 5xx (0 disables; mutations never retry)")
		traceTop  = flag.Int("trace", 0, "after the run, report the K slowest sampled queries from /debug/trace (needs ringsrv -trace-sample)")
		objFrac   = flag.Float64("objects", 0, "fraction of query traffic hitting the object endpoints: Zipf /lookup, moves, and a mid-run flash crowd (0 disables)")
	)
	flag.Parse()

	mix, err := parseMix(*mixRaw)
	if err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = *clients
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	h, err := fetchHealth(client, base)
	if err != nil {
		return err
	}
	mix = pruneMix(mix, h)

	// Expand weights into a pick table once; clients index it uniformly.
	var picks []string
	for _, m := range mix {
		for i := 0; i < m.weight; i++ {
			picks = append(picks, m.endpoint)
		}
	}

	// curN tracks the live node count: the churner updates it from every
	// mutation response, so query clients shrink their id range promptly
	// after a leave (a short stale window remains and is tolerated).
	// Sharded servers advertise a fixed global id universe instead; ids
	// are drawn from it and inactive ones answer out_of_range (an
	// expected race under churn, tolerated like stale ranges).
	var curN atomic.Int64
	curN.Store(int64(h.N))

	g := &generator{
		base:      base,
		batchSize: *batchSize,
		verify:    *churnRate > 0,
		shards:    h.Shards,
		universe:  h.Universe,
		initialN:  h.N,
		cross:     *crossFrac,
		retries:   *retries,
	}

	// Object traffic: seed the catalog before the clients start, so
	// every /lookup has something to find.
	var objPos []int
	if *objFrac > 0 {
		if h.Objects == nil {
			fmt.Fprintln(os.Stderr, "ringload: server does not advertise an object layer, disabling -objects")
		} else {
			objPos, err = seedObjects(client, base, g.idRange(h.N), rand.New(rand.NewSource(*seed+31)))
			if err != nil {
				return err
			}
			g.objFrac = *objFrac
			g.objClients = *clients
		}
	}

	start := time.Now()
	deadline := start.Add(*duration)
	// The flash-crowd phase is the middle third of the run: every lookup
	// piles onto one object, the popularity spike the overlay must ride.
	flashStart := start.Add(*duration / 3)
	flashEnd := start.Add(2 * *duration / 3)
	results := make([][]sample, *clients+1)
	var wg sync.WaitGroup
	verify := g.verify
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			var (
				zipf *rand.Zipf
				pos  []int
			)
			if g.objFrac > 0 {
				zipf = rand.NewZipf(rng, zipfS, 1, objCount-1)
				pos = append([]int(nil), objPos...)
			}
			for time.Now().Before(deadline) {
				n := g.idRange(int(curN.Load()))
				if g.objFrac > 0 && rng.Float64() < g.objFrac {
					now := time.Now()
					flash := now.After(flashStart) && now.Before(flashEnd)
					if idx := rng.Intn(objCount); idx%g.objClients == c && rng.Intn(8) == 0 {
						results[c] = append(results[c], g.doMove(client, n, rng, pos, idx))
					} else {
						results[c] = append(results[c], g.doLookup(client, n, rng, zipf, pos, c, flash))
					}
					continue
				}
				endpoint := picks[rng.Intn(len(picks))]
				results[c] = append(results[c], g.doRequest(client, endpoint, n, rng))
			}
		}(c)
	}
	if verify {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + 7919))
			for time.Now().Before(deadline) {
				time.Sleep(time.Duration(rng.ExpFloat64() / *churnRate * float64(time.Second)))
				if !time.Now().Before(deadline) {
					return
				}
				endpoint := "leave"
				if rng.Float64() < *joinBias {
					endpoint = "join"
				}
				s, n := doChurn(client, base, endpoint)
				if n > 0 {
					curN.Store(int64(n))
				}
				results[*clients] = append(results[*clients], s)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := buildReport(results, h, *clients, elapsed)
	// Duration-end server-side view: the engine's own latency histograms
	// (microseconds, measured inside the serving path — no HTTP or
	// client-loop overhead), keyed like the client-side endpoint rows. A
	// stats failure degrades the report instead of failing a run whose
	// queries all succeeded.
	if srvLat, err := fetchServerLatencies(client, base); err != nil {
		fmt.Fprintf(os.Stderr, "ringload: server stats unavailable, omitting server_latency_us: %v\n", err)
		report.ServerStatsError = err.Error()
	} else {
		report.ServerLatencyUs = srvLat
	}
	if *traceTop > 0 {
		if slow, err := fetchSlowQueries(client, base, *traceTop); err != nil {
			fmt.Fprintf(os.Stderr, "ringload: trace unavailable, omitting slow_queries: %v\n", err)
		} else {
			report.SlowQueries = slow
		}
	}
	if g.objFrac > 0 {
		if or, err := fetchObjectsReport(client, base); err != nil {
			fmt.Fprintf(os.Stderr, "ringload: objects stats unavailable, omitting objects: %v\n", err)
		} else {
			report.Objects = or
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		printReport(report)
	}
	if report.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", report.Errors, report.Requests)
	}
	return nil
}

// serverStats mirrors the slice of ringsrv's /stats body ringload
// consumes (like health, kept in sync by the CI smoke run rather than a
// compile-time dependency): per-endpoint latency summaries, nested one
// engine report per shard on a fleet.
type serverStats struct {
	Endpoints map[string]serverEndpoint `json:"endpoints"`
	PerShard  []struct {
		Shard  int `json:"shard"`
		Engine struct {
			Endpoints map[string]serverEndpoint `json:"endpoints"`
		} `json:"engine"`
	} `json:"per_shard"`
}

type serverEndpoint struct {
	Count     int64         `json:"count"`
	LatencyUs stats.Summary `json:"latency_us"`
}

// fetchServerLatencies snapshots the server's per-endpoint latency
// summaries at the end of a run. Single engines yield one Summary per
// endpoint; fleets yield one per shard ("shard0/estimate", ...): /stats
// serves percentiles, and those do not merge (the shards' histograms on
// /metrics do — sum the shardN_rings_engine_latency_us buckets).
// Endpoints the run never touched (count 0) are dropped.
func fetchServerLatencies(client *http.Client, base string) (map[string]stats.Summary, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := map[string]stats.Summary{}
	for name, ep := range st.Endpoints {
		if ep.Count > 0 {
			out[name] = ep.LatencyUs
		}
	}
	for _, sh := range st.PerShard {
		for name, ep := range sh.Engine.Endpoints {
			if ep.Count > 0 {
				out[fmt.Sprintf("shard%d/%s", sh.Shard, name)] = ep.LatencyUs
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("stats: no endpoint latency summaries in response")
	}
	return out, nil
}

// traceSample mirrors the slice of ringsrv's /debug/trace records
// ringload consumes (no compile-time dependency, like health and
// serverStats).
type traceSample struct {
	Endpoint  string  `json:"endpoint"`
	U         int     `json:"u"`
	V         int     `json:"v"`
	Cached    bool    `json:"cached,omitempty"`
	Cross     bool    `json:"cross,omitempty"`
	Err       string  `json:"err,omitempty"`
	LatencyUs float64 `json:"latency_us"`
}

// fetchSlowQueries drains the server's sampled trace ring and keeps the
// k slowest records, slowest first — the post-run slow-query report.
// Requires the server to run with -trace-sample; an empty ring is an
// error so the caller warns instead of silently reporting nothing.
func fetchSlowQueries(client *http.Client, base string, k int) ([]traceSample, error) {
	resp, err := client.Get(base + "/debug/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace: status %d", resp.StatusCode)
	}
	var body struct {
		SampleRate int           `json:"sample_rate"`
		Records    []traceSample `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(body.Records) == 0 {
		if body.SampleRate == 0 {
			return nil, fmt.Errorf("trace: sampling disabled on the server (start ringsrv with -trace-sample)")
		}
		return nil, fmt.Errorf("trace: ring is empty")
	}
	sort.Slice(body.Records, func(i, j int) bool {
		return body.Records[i].LatencyUs > body.Records[j].LatencyUs
	})
	if k < len(body.Records) {
		body.Records = body.Records[:k]
	}
	return body.Records, nil
}

func fetchHealth(client *http.Client, base string) (health, error) {
	var h health
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	if !h.OK || h.N < 2 {
		return h, fmt.Errorf("healthz: server not ready: %+v", h)
	}
	return h, nil
}

func pruneMix(mix []mixEntry, h health) []mixEntry {
	kept := mix[:0]
	for _, m := range mix {
		if (m.endpoint == "nearest" && !h.Overlay) || (m.endpoint == "route" && !h.Routing) {
			fmt.Fprintf(os.Stderr, "ringload: snapshot does not serve %q, dropping it from the mix\n", m.endpoint)
			continue
		}
		kept = append(kept, m)
	}
	if len(kept) == 0 {
		kept = append(kept, mixEntry{endpoint: "estimate", weight: 1})
	}
	return kept
}

// generator shapes one client's requests: the id universe, the shard
// partition (owner = id mod shards, mirroring the server's static
// round-robin rule) and the target cross-shard fraction.
type generator struct {
	base      string
	batchSize int
	verify    bool
	shards    int
	universe  int
	// initialN is the boot-time active count (health.N), the prefix of
	// the universe that started active on a churned sharded server.
	initialN int
	cross    float64
	// retries is the per-query retry budget for transient failures.
	retries int
	// objFrac routes that fraction of each client's requests to the
	// object endpoints; objClients partitions move ownership (object i
	// is moved only by client i mod objClients, so remembered positions
	// stay true outside churn).
	objFrac    float64
	objClients int
}

// retryBase is the first retry's backoff; attempt i waits
// retryBase<<i plus up to 50% jitter.
const retryBase = 25 * time.Millisecond

// transientStatus reports whether a status is worth retrying: 5xx
// covers shed load ("overloaded"), a shard with every replica dark
// ("unavailable") and mid-restart windows — all states a later attempt
// can outlive. 501 is the server's permanent "not implemented"
// contract answer and is excluded.
func transientStatus(code int) bool {
	return code >= 500 && code != http.StatusNotImplemented
}

// withRetry issues one query through the retry loop. Every attempt is
// a fresh request (issue builds one from scratch, so a consumed body
// reader is never replayed). Only queries come through here; mutations
// are not idempotent and never retry.
func (g *generator) withRetry(rng *rand.Rand, s *sample, issue func() (*http.Response, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := issue()
		transient := err != nil || transientStatus(resp.StatusCode)
		if !transient || attempt >= g.retries {
			if transient && g.retries > 0 {
				s.gaveUp = true
			}
			return resp, err
		}
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			resp.Body.Close()
		}
		s.retries++
		backoff := retryBase << attempt
		time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff)/2+1)))
	}
}

// idRange picks the id space queries draw from: the fixed global
// universe on sharded servers, the live node count otherwise.
func (g *generator) idRange(curN int) int {
	if g.universe > 0 {
		return g.universe
	}
	return curN
}

// pickPair draws one query pair, honoring the cross fraction against
// a sharded server; cross reports whether the pair spans shards.
func (g *generator) pickPair(rng *rand.Rand, n int) (u, v int, cross bool) {
	u = rng.Intn(n)
	if g.shards <= 1 || n <= g.shards {
		return u, rng.Intn(n), false
	}
	if rng.Float64() < g.cross {
		for v = rng.Intn(n); v%g.shards == u%g.shards; v = rng.Intn(n) {
		}
		return u, v, true
	}
	return u, g.sameShard(rng, u, n), false
}

// sameShard draws an id congruent to u modulo the shard count.
func (g *generator) sameShard(rng *rand.Rand, u, n int) int {
	r := u % g.shards
	m := (n - r + g.shards - 1) / g.shards // ids ≡ r (mod shards) below n
	return rng.Intn(m)*g.shards + r
}

// batchRange narrows batch pair draws on a churned sharded server to
// the boot-time active prefix: a batch fails whole on any inactive
// id, and a draw from the full universe (half dormant at the default
// capacity) would make out_of_range the near-certain outcome for
// every batch — the per-shard version check would never run. Ids
// below the boot-time active count stay mostly active (only leaves
// retire them), so most batches succeed, while single estimates keep
// drawing from the full universe and exercising the inactive-id path.
func (g *generator) batchRange(n int) int {
	if g.shards > 1 && g.verify && g.initialN > 0 && g.initialN < n {
		return g.initialN
	}
	return n
}

func (g *generator) doRequest(client *http.Client, endpoint string, n int, rng *rand.Rand) sample {
	var (
		issue    func() (*http.Response, error)
		selfPair bool
	)
	name := endpoint
	switch endpoint {
	case "estimate":
		u, v, cross := g.pickPair(rng, n)
		if g.verify && !cross && rng.Intn(8) == 0 {
			v = u // planted self-pair: the answer must be exactly zero
		}
		selfPair = u == v
		if cross {
			name = "estimate-x" // the report's intra/cross split
		}
		url := fmt.Sprintf("%s/estimate?u=%d&v=%d", g.base, u, v)
		issue = func() (*http.Response, error) { return client.Get(url) }
	case "batch":
		type pair struct {
			U int `json:"u"`
			V int `json:"v"`
		}
		pairs := make([]pair, g.batchSize)
		nb := g.batchRange(n)
		for i := range pairs {
			u, v, _ := g.pickPair(rng, nb)
			pairs[i] = pair{U: u, V: v}
		}
		body, merr := json.Marshal(map[string]any{"pairs": pairs})
		if merr != nil {
			return sample{endpoint: endpoint, err: merr}
		}
		issue = func() (*http.Response, error) {
			return client.Post(g.base+"/batch", "application/json", bytes.NewReader(body))
		}
	case "nearest":
		url := fmt.Sprintf("%s/nearest?target=%d", g.base, rng.Intn(n))
		issue = func() (*http.Response, error) { return client.Get(url) }
	case "route":
		// Cross-shard routes are 501 by contract; always draw the
		// destination from the source's shard.
		src := rng.Intn(n)
		dst := src
		if g.shards > 1 && n > g.shards {
			dst = g.sameShard(rng, src, n)
		} else {
			dst = rng.Intn(n)
		}
		url := fmt.Sprintf("%s/route?src=%d&dst=%d", g.base, src, dst)
		issue = func() (*http.Response, error) { return client.Get(url) }
	}
	s := sample{endpoint: name}
	start := time.Now()
	resp, err := g.withRetry(rng, &s, issue)
	// Latency is client-perceived: a retried request's backoffs count.
	s.latencyMs = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		if g.verify && resp.StatusCode == http.StatusBadRequest && errCode(resp.Body) == "out_of_range" {
			s.stale = true // raced a shrink swap; expected under churn
			return s
		}
		s.err = fmt.Errorf("status %d", resp.StatusCode)
		return s
	}
	if !g.verify {
		io.Copy(io.Discard, resp.Body)
		return s
	}
	// Churn-mode protocol checks ("estimate mismatch" failures).
	switch endpoint {
	case "estimate":
		var res struct {
			Upper float64 `json:"upper"`
			OK    bool    `json:"ok"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&res); derr != nil {
			s.err = fmt.Errorf("estimate body: %v", derr)
			return s
		}
		if selfPair && (res.Upper != 0 || !res.OK) {
			s.err = fmt.Errorf("estimate mismatch: self-pair answered upper=%v ok=%v", res.Upper, res.OK)
		}
	case "batch":
		var res struct {
			Results []struct {
				Version int64 `json:"version"`
				UShard  int   `json:"ushard"`
				Cross   bool  `json:"cross"`
			} `json:"results"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&res); derr != nil {
			s.err = fmt.Errorf("batch body: %v", derr)
			return s
		}
		// One batch must answer from one snapshot per shard: on a
		// sharded server versions are per-shard (keyed by the owning
		// shard of u), on a single engine everything shares shard 0.
		versionOf := map[int]int64{}
		for i, r := range res.Results {
			if r.Cross {
				continue // beacon answers span two shards' states
			}
			if v, seen := versionOf[r.UShard]; seen && v != r.Version {
				s.err = fmt.Errorf("estimate mismatch: batch result %d split shard %d across snapshot versions %d and %d",
					i, r.UShard, v, r.Version)
				break
			}
			versionOf[r.UShard] = r.Version
		}
	default:
		io.Copy(io.Discard, resp.Body)
	}
	return s
}

// errCode extracts the machine-readable code of an error response.
func errCode(body io.Reader) string {
	var eb struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(io.LimitReader(body, 1<<12)).Decode(&eb); err != nil {
		return ""
	}
	return eb.Code
}

// doChurn issues one mutation and reports the server's new node count
// (0 when unavailable).
func doChurn(client *http.Client, base, endpoint string) (sample, int) {
	start := time.Now()
	resp, err := client.Post(base+"/"+endpoint, "application/json", strings.NewReader("{}"))
	s := sample{endpoint: endpoint, latencyMs: float64(time.Since(start)) / float64(time.Millisecond)}
	if err != nil {
		s.err = err
		return s, 0
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		// Hitting the capacity ceiling or the MinNodes floor is a trace
		// artifact, not a server failure (the server says which via the
		// machine-readable code field).
		if resp.StatusCode == http.StatusBadRequest {
			switch errCode(resp.Body) {
			case "at_capacity", "below_floor":
				s.stale = true
				return s, 0
			}
		}
		s.err = fmt.Errorf("status %d", resp.StatusCode)
		return s, 0
	}
	var res struct {
		N int `json:"n"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&res); derr != nil {
		s.err = fmt.Errorf("churn body: %v", derr)
		return s, 0
	}
	return s, res.N
}

// EndpointReport summarizes one endpoint's traffic.
type EndpointReport struct {
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	Stale    int `json:"stale,omitempty"`
	// Retries counts extra attempts absorbed by the retry loop; GaveUp
	// counts requests still failing transiently at budget exhaustion
	// (every GaveUp is also an error).
	Retries   int           `json:"retries,omitempty"`
	GaveUp    int           `json:"gave_up,omitempty"`
	QPS       float64       `json:"qps"`
	LatencyMs stats.Summary `json:"latency_ms"`
}

// Report is the machine-readable run summary (-json emits exactly this).
type Report struct {
	Workload  string  `json:"workload"`
	N         int     `json:"n"`
	Version   int64   `json:"version"`
	Clients   int     `json:"clients"`
	DurationS float64 `json:"duration_sec"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	// Stale counts tolerated churn races: out-of-range queries right
	// after a shrink swap, and mutations refused at the capacity or
	// MinNodes bounds. They are excluded from Errors.
	Stale int `json:"stale,omitempty"`
	// Retries is the run-wide count of extra attempts the transient
	// retry loop absorbed (a fleet riding out a replica restart shows
	// up here, not in Errors); GaveUp counts queries that exhausted
	// the budget while still failing transiently.
	Retries   int                       `json:"retries,omitempty"`
	GaveUp    int                       `json:"gave_up,omitempty"`
	QPS       float64                   `json:"qps"`
	Endpoints map[string]EndpointReport `json:"endpoints"`
	// ServerLatencyUs is the duration-end snapshot of the server's own
	// per-endpoint latency summaries (/stats latency_us, microseconds,
	// measured inside the serving path), keyed by endpoint — prefixed
	// "shardN/" on a fleet. Omitted when /stats was unreachable.
	ServerLatencyUs map[string]stats.Summary `json:"server_latency_us,omitempty"`
	// ServerStatsError records why ServerLatencyUs is absent (the /stats
	// scrape failed), so a -json consumer can distinguish "server-side
	// view unavailable" from "endpoint never touched".
	ServerStatsError string `json:"server_stats_error,omitempty"`
	// SlowQueries is the -trace K dump: the K slowest sampled queries
	// from the server's /debug/trace ring, slowest first. Omitted when
	// tracing was off or the scrape failed.
	SlowQueries []traceSample `json:"slow_queries,omitempty"`
	// Objects is the duration-end /objects/stats scrape (-objects runs
	// only): the server's own lookup/miss/republish counters.
	Objects *objectsReport `json:"objects,omitempty"`
}

func buildReport(results [][]sample, h health, clients int, elapsed time.Duration) Report {
	rep := Report{
		Workload:  h.Workload,
		N:         h.N,
		Version:   h.Version,
		Clients:   clients,
		DurationS: elapsed.Seconds(),
		Endpoints: map[string]EndpointReport{},
	}
	lats := map[string][]float64{}
	for _, rs := range results {
		for _, s := range rs {
			ep := rep.Endpoints[s.endpoint]
			ep.Requests++
			if s.err != nil {
				ep.Errors++
			}
			if s.stale {
				ep.Stale++
			}
			ep.Retries += s.retries
			if s.gaveUp {
				ep.GaveUp++
			}
			rep.Endpoints[s.endpoint] = ep
			lats[s.endpoint] = append(lats[s.endpoint], s.latencyMs)
			rep.Requests++
			if s.err != nil {
				rep.Errors++
			}
			if s.stale {
				rep.Stale++
			}
			rep.Retries += s.retries
			if s.gaveUp {
				rep.GaveUp++
			}
		}
	}
	for name, ep := range rep.Endpoints {
		ep.QPS = float64(ep.Requests) / elapsed.Seconds()
		ep.LatencyMs = stats.Summarize(lats[name])
		rep.Endpoints[name] = ep
	}
	rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	return rep
}

func printReport(rep Report) {
	fmt.Printf("ringload: %s (n=%d, snapshot v%d), %d clients, %.1fs\n",
		rep.Workload, rep.N, rep.Version, rep.Clients, rep.DurationS)
	tb := stats.NewTable("endpoint", "requests", "errors", "qps", "p50 ms", "p95 ms", "p99 ms", "max ms")
	names := make([]string, 0, len(rep.Endpoints))
	for name := range rep.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := rep.Endpoints[name]
		tb.AddRow(name, ep.Requests, ep.Errors, ep.QPS,
			ep.LatencyMs.P50, ep.LatencyMs.P95, ep.LatencyMs.P99, ep.LatencyMs.Max)
	}
	fmt.Print(tb.String())
	line := fmt.Sprintf("total: %d requests, %d errors", rep.Requests, rep.Errors)
	if rep.Stale > 0 {
		line += fmt.Sprintf(", %d stale churn races", rep.Stale)
	}
	if rep.Retries > 0 || rep.GaveUp > 0 {
		line += fmt.Sprintf(", %d retries (%d gave up)", rep.Retries, rep.GaveUp)
	}
	fmt.Printf("%s, %.0f qps\n", line, rep.QPS)
	if rep.Objects != nil {
		fmt.Printf("objects: %d published (%d replicas), %d lookups (%d not found, %d certified misses), %d republishes\n",
			rep.Objects.Objects, rep.Objects.Replicas, rep.Objects.Lookups,
			rep.Objects.NotFound, rep.Objects.Misses, rep.Objects.Republishes)
	}
	if len(rep.SlowQueries) > 0 {
		fmt.Printf("slowest sampled queries (server-side, from /debug/trace):\n")
		for _, s := range rep.SlowQueries {
			line := fmt.Sprintf("  %8.1f us  %s u=%d v=%d", s.LatencyUs, s.Endpoint, s.U, s.V)
			if s.Cross {
				line += " cross"
			}
			if s.Cached {
				line += " cached"
			}
			if s.Err != "" {
				line += " err=" + s.Err
			}
			fmt.Println(line)
		}
	}
}

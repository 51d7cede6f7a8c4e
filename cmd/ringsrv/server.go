package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/churn"
	"rings/internal/objects"
	"rings/internal/oracle"
	"rings/internal/shard"
	"rings/internal/telemetry"
	"rings/internal/version"
)

// server wires an oracle.Engine — or, under -shards, a shard.Fleet —
// to the HTTP surface. All query endpoints are thin translations —
// parameter parsing in, JSON out — so the engine's own counters and
// latency histograms describe the served traffic faithfully.
type server struct {
	engine *oracle.Engine // nil in fleet mode
	fleet  *shard.Fleet   // nil in single-engine mode
	mux    *http.ServeMux
	start  time.Time
	// rebuildMu serializes /snapshot rebuilds; queries never take it.
	rebuildMu sync.Mutex
	// mutator, when non-nil, enables the churn admin endpoints. churnMu
	// serializes mutations (the Mutator is single-writer by contract);
	// queries never take it — they keep flowing against the engine's
	// current snapshot while a repair runs, exactly like rebuilds. In
	// fleet mode the fleet owns per-shard mutation locks instead.
	mutator  *churn.Mutator
	churnMu  sync.Mutex
	churnRng *rand.Rand
	// leaveSeed seeds per-request leave selection in fleet mode (each
	// request derives its own rand.Rand, so concurrent leaves on
	// different shards never share one unsynchronized stream).
	leaveSeed atomic.Int64
	// persisters, when non-nil, receive the current snapshot after every
	// swap (and after a cold boot) so a restart warm-starts from disk — a
	// warm boot serves the file itself and leaves it alone. One per
	// serving unit: the engine's file, or shard s's
	// shard.SnapshotPath(base, s), so a commit touching one shard
	// rewrites only that shard's file. Writes are serialized and
	// coalesced by the persister, never by the mutation locks — see
	// persist.go.
	persisters []*persister
	// Telemetry surface (see telemetry.go): the sampled-query trace ring
	// behind /debug/trace and the online stretch auditor feeding
	// /metrics. Always initialized by the constructors (sampling
	// disabled); main re-enables with the flag-configured rates.
	traceRing       *telemetry.TraceRing
	traceSampler    *telemetry.Sampler
	traceSampleRate int
	auditor         *auditor
	// inflight, when non-nil, is the admission semaphore: a request that
	// cannot acquire a slot immediately is shed with 503 "overloaded"
	// rather than queued without bound (a downed shard backend must not
	// pile up goroutines). /healthz and /metrics bypass it — liveness
	// and scrapes stay observable under overload.
	inflight chan struct{}
	// Object directory (single-engine mode; the fleet owns per-shard
	// directories). Mutations are serialized by the directory itself;
	// churn repairs run under churnMu like every other mutation. See
	// objects.go.
	objDir     *objects.Directory
	objMetrics *objects.Metrics
}

func newServer(engine *oracle.Engine) *server {
	s := &server{engine: engine, mux: http.NewServeMux(), start: time.Now()}
	s.enableTelemetry(0, 0)
	s.enableObjects(objects.Config{})
	s.routes()
	return s
}

// newFleetServer serves the same HTTP surface over a sharded fleet.
// seed pins server-side leave selection (each request derives a
// private stream from it), mirroring -seed in single-engine mode.
func newFleetServer(fleet *shard.Fleet, seed int64) *server {
	s := &server{fleet: fleet, mux: http.NewServeMux(), start: time.Now()}
	s.leaveSeed.Store(seed)
	s.enableTelemetry(0, 0)
	s.routes()
	return s
}

func (s *server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("GET /nearest", s.handleNearest)
	s.mux.HandleFunc("GET /route", s.handleRoute)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /join", s.handleJoin)
	s.mux.HandleFunc("POST /leave", s.handleLeave)
	s.mux.HandleFunc("GET /churn/stats", s.handleChurnStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	s.mux.HandleFunc("GET /replica", s.handleReplicaList)
	s.mux.HandleFunc("POST /replica", s.handleReplicaAdmin)
	s.mux.HandleFunc("POST /publish", s.handlePublish)
	s.mux.HandleFunc("POST /unpublish", s.handleUnpublish)
	s.mux.HandleFunc("GET /lookup", s.handleLookup)
	s.mux.HandleFunc("GET /objects/stats", s.handleObjectsStats)
}

// enableLimits installs the admission semaphore (maxInflight <= 0
// leaves admission unbounded).
func (s *server) enableLimits(maxInflight int) {
	if maxInflight > 0 {
		s.inflight = make(chan struct{}, maxInflight)
	}
}

// enableChurn attaches a churn mutator (its current snapshot must be
// the engine's). seed drives server-side random leave selection.
func (s *server) enableChurn(m *churn.Mutator, seed int64) {
	s.mutator = m
	s.churnRng = rand.New(rand.NewSource(seed))
}

// enablePersist arranges for every swap to persist the snapshot — per
// shard in fleet mode, so a restarted fleet warm-starts shard by shard
// via shard.OpenFleet.
func (s *server) enablePersist(path string) {
	if s.fleet == nil {
		s.persisters = []*persister{newPersister(path)}
		return
	}
	s.persisters = make([]*persister, s.fleet.K())
	for i := range s.persisters {
		s.persisters[i] = newPersister(shard.SnapshotPath(path, i))
	}
}

// bootPersist enables persistence and does its boot-time half: a cold
// build is persisted now, while a snapshot that came
// from the file(s) — a warm fleet, or a flat-only single-engine warm
// start, hydrated here — is the mapped bytes themselves and writes
// nothing until the next swap.
func (s *server) bootPersist(path string, warmFleet bool) error {
	s.enablePersist(path)
	if warmFleet {
		return nil
	}
	if s.fleet == nil {
		if snap := s.engine.Snapshot(); snap.Idx == nil {
			s.hydrate(snap)
			return nil
		}
	}
	return s.persistCurrent()
}

// persistCurrent persists the current snapshot — every shard's, in
// fleet mode (no-op when persistence is disabled). Callers must not
// hold churnMu or rebuildMu: the whole point of the persister is that
// mutation throughput is not gated on fsync latency.
func (s *server) persistCurrent() error {
	units := make([]int, len(s.persisters))
	for i := range units {
		units[i] = i
	}
	return s.persistShards(units)
}

// persistShards persists the listed units' current snapshots (no-op
// when persistence is disabled). Fleet churn commits call this with
// only the touched shards.
func (s *server) persistShards(units []int) error {
	if s.persisters == nil {
		return nil
	}
	for _, i := range units {
		err := s.persisters[i].persist(func() io.WriterTo {
			if s.fleet == nil {
				return s.engine.Snapshot()
			}
			return s.fleet.ShardSnapshot(i)
		})
		if err != nil && s.fleet != nil {
			err = fmt.Errorf("shard %d: %w", i, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// hydrate upgrades a flat-only warm start in the background: a lazy
// index, which sorts no row, and the overlay are built around the
// already-open, already-verified arena (no second read of the file) and
// swapped in, bringing /nearest, /lookup and /route online (the first
// /route builds the router and the rows it reads). The full snapshot adopts
// fast's mapping, so fast is not closed here — Engine.Rebuild closes
// whichever snapshot it swaps out. The swap is skipped if a rebuild already replaced fast;
// rebuildMu makes that check-and-swap atomic against /snapshot.
func (s *server) hydrate(fast *oracle.Snapshot) {
	go func() {
		full, err := fast.Hydrate()
		if err != nil {
			log.Printf("hydrate %s: %v (continuing to serve estimates from the mapped arenas)", fast.Name, err)
			return
		}
		s.rebuildMu.Lock()
		defer s.rebuildMu.Unlock()
		if s.engine.Snapshot() != fast {
			return // a rebuild landed first; its snapshot is newer
		}
		s.engine.Swap(full)
		s.objDir.SetSnapshot(full) // directory becomes ready with the index
		log.Printf("hydrated %s: routing=%v overlay=%v", full.Name, full.Routable(), full.Overlay != nil)
	}()
}

// gracefulServe listens on srv.Addr and serves srv.Handler there until
// ctx is canceled — plain requests from the connection loop (conn.go),
// every other connection from srv once the loop has handed it off; the
// rest of a request whose first byte has arrived is due within
// srv.ReadHeaderTimeout on both. It then drains: idle connections close,
// requests in flight finish, first on the loop and then on srv, all
// inside drainTimeout. It returns nil on a clean drain and the listen,
// serve or drain error otherwise.
func gracefulServe(srv *http.Server, ctx context.Context, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	return serveListener(srv, ln, ctx, drainTimeout)
}

// serveListener is gracefulServe on a listener the caller opened.
func serveListener(srv *http.Server, ln net.Listener, ctx context.Context, drainTimeout time.Duration) error {
	loop := newConnLoop(ln, srv.Handler, srv.ReadHeaderTimeout)
	defer loop.Close()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(loop) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := errors.Join(loop.drain(shutdownCtx), srv.Shutdown(shutdownCtx)); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, ok := w.(*loopResponse); ok {
		mLoopRequests.Inc()
	} else {
		mNetHTTPRequests.Inc()
	}
	if s.inflight != nil && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			writeJSON(w, http.StatusServiceUnavailable, errorBody{
				Error: "server at its in-flight request limit",
				Code:  codeOverloaded,
			})
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// writeJSON encodes v and only then writes the status line, so a value
// JSON cannot carry (a cross-shard estimate with no common beacon has
// upper = +Inf) is a complete 500 "internal" rather than a 200 with half
// a body. The error body itself always encodes: it holds two strings.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeInternalError(w, fmt.Sprintf("encode %T response", v), err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody sends an already encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Printf("ringsrv: write response: %v", err)
	}
}

type errorBody struct {
	Error string `json:"error"`
	// Code is the machine-readable error class — what load generators
	// key churn-race tolerance on (matching human prose would break on
	// any rewording): "out_of_range" (node id raced a shrink swap),
	// "below_floor" (leave refused at MinNodes), "at_capacity" (join
	// refused, universe full), "not_implemented" (artifact disabled),
	// "cross_shard" (route endpoints in different shards), "internal"
	// (server-side failure, 500-class).
	Code string `json:"code,omitempty"`
}

// Error codes for errorBody.Code.
const (
	codeOutOfRange     = "out_of_range"
	codeBelowFloor     = "below_floor"
	codeAtCapacity     = "at_capacity"
	codeNotImplemented = "not_implemented"
	codeCrossShard     = "cross_shard"
	codeInternal       = "internal"
	// codeUnavailable marks a 503 where the serving layer is degraded
	// (a shard's replicas are all down, or an operation kept racing
	// epoch changes): retryable, never a wrong answer.
	codeUnavailable = "unavailable"
	// codeOverloaded marks a 503 shed by the admission semaphore.
	codeOverloaded = "overloaded"
	// codeNotFound marks a 404: the named object has no published
	// replica anywhere (a name problem, not a node-id problem).
	codeNotFound = "not_found"
	// codeNoReplica marks an unpublish naming a node that holds no
	// replica of an existing object — under churn, usually a race with a
	// repair that moved the replica.
	codeNoReplica = "no_replica"
)

// writeError maps engine errors to HTTP statuses: disabled artifacts
// and cross-shard routes are 501 (the server genuinely cannot answer),
// internal engine failures (a churn commit that passed validation but
// failed to build) are 500, everything else surfaced by a query is a
// client-input problem (400). Known error classes carry a
// machine-readable code.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	body := errorBody{Error: err.Error()}
	switch {
	case errors.Is(err, oracle.ErrNoRouter) || errors.Is(err, oracle.ErrNoOverlay):
		status = http.StatusNotImplemented
		body.Code = codeNotImplemented
	case errors.Is(err, shard.ErrCrossShard):
		status = http.StatusNotImplemented
		body.Code = codeCrossShard
	case errors.Is(err, shard.ErrShardDown) || errors.Is(err, shard.ErrEpochFenced) || shard.IsUnavailable(err):
		// Degraded serving layer: the query was refused, not answered
		// wrong. 503 tells clients (and ringload's retry loop) to back
		// off and retry.
		status = http.StatusServiceUnavailable
		body.Code = codeUnavailable
	case errors.Is(err, churn.ErrCommit):
		status = http.StatusInternalServerError
		body.Code = codeInternal
	case errors.Is(err, objects.ErrUnknownObject):
		status = http.StatusNotFound
		body.Code = codeNotFound
	case errors.Is(err, objects.ErrNotReady):
		// Flat-only warm start still hydrating: retryable, not wrong.
		status = http.StatusServiceUnavailable
		body.Code = codeUnavailable
	case errors.Is(err, objects.ErrNoReplica):
		body.Code = codeNoReplica
	case errors.Is(err, oracle.ErrNodeRange):
		body.Code = codeOutOfRange
	case errors.Is(err, churn.ErrBelowFloor):
		body.Code = codeBelowFloor
	}
	writeJSON(w, status, body)
}

// writeAnswer answers one query: its error through writeError, or a 200
// whose JSON body enc appends into pooled scratch — or, when the appender
// refuses (an ok:false answer has an infinite upper bound), the 500
// writeJSON answers with where encoding/json refuses the same value.
func writeAnswer(w http.ResponseWriter, err error, enc func(b []byte) ([]byte, error)) {
	if err != nil {
		writeError(w, err)
		return
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	sc.body, err = enc(sc.body[:0])
	sc.body = append(sc.body, '\n')
	writeAppended(w, sc.body, err)
}

// writeInternalError reports a 500 with the internal code (build or
// persistence failures — never client input).
func writeInternalError(w http.ResponseWriter, context string, err error) {
	writeJSON(w, http.StatusInternalServerError, errorBody{
		Error: fmt.Sprintf("%s: %v", context, err),
		Code:  codeInternal,
	})
}

// queryParam is r.URL.Query().Get(name) without the url.Values map: the
// first name=value pair of a raw query holding no escape ('%', '+') and
// no ';' (which makes url.ParseQuery drop a pair) is read in place;
// any other query goes through url.ParseQuery as before.
func queryParam(rawQuery, name string) string {
	if strings.ContainsAny(rawQuery, "%+;") {
		q, _ := url.ParseQuery(rawQuery)
		return q.Get(name)
	}
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if key, value, _ := strings.Cut(pair, "="); key == name {
			return value
		}
	}
	return ""
}

// intParam reads one required integer from a raw query.
func intParam(rawQuery, name string) (int, error) {
	raw := queryParam(rawQuery, name)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// healthBody tells load generators everything they need to shape
// traffic: the node-id range and which endpoints this snapshot serves.
// Shards and Universe are only set in fleet mode: ids are then global
// — [0, Universe) with Owner = id mod Shards — and under churn only a
// subset of them is active at a time.
type healthBody struct {
	OK       bool   `json:"ok"`
	Version  int64  `json:"version"`
	N        int    `json:"n"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Routing  bool   `json:"routing"`
	Overlay  bool   `json:"overlay"`
	Shards   int    `json:"shards,omitempty"`
	Universe int    `json:"universe,omitempty"`
	// Replica roster summary (fleet mode with -replicas): Degraded is
	// true while any replica is killed or breaker-open — the fleet still
	// answers (failover), but with reduced redundancy.
	Replicas     int  `json:"replicas,omitempty"`
	ReplicasDown int  `json:"replicas_down,omitempty"`
	Degraded     bool `json:"degraded,omitempty"`
	// Objects summarizes the object-location layer (both modes).
	Objects   *objectsHealth `json:"objects,omitempty"`
	UptimeSec float64        `json:"uptime_sec"`
	// BuildVersion identifies the serving binary (ldflags stamp or VCS
	// revision), so scraped fleets correlate behavior with code.
	BuildVersion string `json:"build_version"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		s.handleFleetHealthz(w)
		return
	}
	snap := s.engine.Snapshot()
	writeJSON(w, http.StatusOK, healthBody{
		OK:           true,
		Version:      snap.Version,
		N:            snap.N(),
		Workload:     snap.Name,
		Scheme:       snap.Config.Scheme,
		Routing:      snap.Routable(),
		Overlay:      snap.Overlay != nil,
		Objects:      s.objectsHealthBody(),
		UptimeSec:    time.Since(s.start).Seconds(),
		BuildVersion: version.String(),
	})
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	u, err := intParam(q, "u")
	if err != nil {
		writeError(w, err)
		return
	}
	v, err := intParam(q, "v")
	if err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	if s.fleet != nil {
		res, err := s.fleet.Estimate(u, v)
		s.observeEstimate(res, err, start)
		writeAnswer(w, err, func(b []byte) ([]byte, error) { return appendFleetEstimate(b, &res) })
		return
	}
	res, err := s.engine.Estimate(u, v)
	s.observeEstimate(shard.EstimateResult{EstimateResult: res}, err, start)
	writeAnswer(w, err, func(b []byte) ([]byte, error) { return appendEstimateResult(b, &res) })
}

// writeAppended sends a 200 whose JSON body a handler appended into
// pooled scratch, or the appender's refusal as a 500.
func writeAppended(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		writeInternalError(w, "encode response", err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	pairs, err := sc.readPairs(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	if len(pairs) == 0 {
		writeError(w, errors.New("batch needs at least one pair"))
		return
	}
	if s.fleet != nil {
		results, err := s.fleet.EstimateBatch(pairs)
		if err != nil {
			writeError(w, err)
			return
		}
		for i := range results {
			s.auditor.offer(auditRecord{
				u: results[i].U, v: results[i].V,
				lower: results[i].Lower, upper: results[i].Upper,
				version: results[i].Version,
				cross:   results[i].Cross,
			})
		}
		writeJSON(w, http.StatusOK, fleetBatchResponse{Results: results})
		return
	}
	if cap(sc.results) < len(pairs) {
		sc.results = make([]oracle.EstimateResult, len(pairs))
	}
	results, err := s.engine.EstimateBatchInto(pairs, sc.results[:len(pairs)])
	if err != nil {
		writeError(w, err)
		return
	}
	for i := range results {
		s.auditor.offer(auditRecord{
			u: results[i].U, v: results[i].V,
			lower: results[i].Lower, upper: results[i].Upper,
			version: results[i].Version,
		})
	}
	sc.body, err = appendBatchResponse(sc.body[:0], results)
	writeAppended(w, sc.body, err)
}

func (s *server) handleNearest(w http.ResponseWriter, r *http.Request) {
	target, err := intParam(r.URL.RawQuery, "target")
	if err != nil {
		writeError(w, err)
		return
	}
	if s.fleet != nil {
		res, err := s.fleet.Nearest(target)
		writeAnswer(w, err, func(b []byte) ([]byte, error) {
			b, err := appendNearestResult(b, &res.NearestResult)
			return appendFleetTail(b, res.Shard, res.Epoch), err
		})
		return
	}
	res, err := s.engine.Nearest(target)
	writeAnswer(w, err, func(b []byte) ([]byte, error) { return appendNearestResult(b, &res) })
}

func (s *server) handleRoute(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	src, err := intParam(q, "src")
	if err != nil {
		writeError(w, err)
		return
	}
	dst, err := intParam(q, "dst")
	if err != nil {
		writeError(w, err)
		return
	}
	if s.fleet != nil {
		res, err := s.fleet.Route(src, dst)
		writeAnswer(w, err, func(b []byte) ([]byte, error) {
			b, err := appendRouteResult(b, &res.RouteResult)
			return appendFleetTail(b, res.Shard, res.Epoch), err
		})
		return
	}
	res, err := s.engine.Route(src, dst)
	writeAnswer(w, err, func(b []byte) ([]byte, error) { return appendRouteResult(b, &res) })
}

type snapshotRequest struct {
	// Seed reseeds the workload for the rebuild; omitted or zero means
	// "current seed + 1" (a fresh instance of the same family).
	Seed int64 `json:"seed"`
}

type snapshotResponse struct {
	Version  int64  `json:"version"`
	N        int    `json:"n"`
	Workload string `json:"workload"`
	// BuildSec predates the per-phase breakdown and is kept for
	// pre-PR-3 clients; it always equals Build.TotalSec.
	BuildSec float64           `json:"build_sec"`
	Build    oracle.BuildStats `json:"build"`
}

// handleSnapshot rebuilds the snapshot on a fresh seed and swaps it in.
// The build runs outside any engine lock — queries keep being answered
// from the old snapshot until the swap — but rebuilds themselves are
// serialized: a second request while one is building gets 409.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		// Per-shard rebuilds arrive with rebalancing; a fleet-wide
		// rebuild is a restart.
		writeJSON(w, http.StatusNotImplemented, errorBody{
			Error: "snapshot rebuilds are not supported under -shards (restart the fleet)",
			Code:  codeNotImplemented,
		})
		return
	}
	if s.mutator != nil {
		// Membership lives in the churn engine; a spec rebuild would
		// desynchronize the served snapshot from it.
		writeJSON(w, http.StatusConflict, errorBody{
			Error: "snapshot rebuilds are disabled under -churn (membership is owned by the churn engine; use /join and /leave)",
		})
		return
	}
	var req snapshotRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("invalid snapshot body: %v", err))
			return
		}
	}
	if !s.rebuildMu.TryLock() {
		writeJSON(w, http.StatusConflict, errorBody{Error: "a snapshot rebuild is already in progress"})
		return
	}
	defer s.rebuildMu.Unlock()
	cfg := s.engine.Snapshot().Config
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	} else {
		cfg.Seed++
	}
	snap, err := s.engine.Rebuild(cfg)
	if err != nil {
		writeInternalError(w, "rebuild", err)
		return
	}
	// Re-anchor published objects on the rebuilt instance (same n, fresh
	// metric): replica ids carry over, overlays are rebuilt.
	s.objDir.SetSnapshot(snap)
	if err := s.persistCurrent(); err != nil {
		writeInternalError(w, "persist", err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Version:  snap.Version,
		N:        snap.N(),
		Workload: snap.Name,
		BuildSec: snap.BuildElapsed.Seconds(),
		Build:    snap.Build,
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		s.handleFleetStats(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

// ---- churn admin endpoints -------------------------------------------

var errNoChurn = errors.New("churn disabled: start ringsrv with -churn")

type joinRequest struct {
	// Base picks a specific dormant base node; omitted or negative
	// lets the server pick the smallest dormant ids (Count of them).
	Base *int `json:"base,omitempty"`
	// Count joins that many dormant nodes in one commit (default 1;
	// ignored when Base picks a specific node).
	Count int `json:"count,omitempty"`
}

type leaveRequest struct {
	// Base picks a specific active base node; omitted or negative lets
	// the server pick random active ones (Count of them).
	Base *int `json:"base,omitempty"`
	// Count retires that many nodes in one commit (default 1; ignored
	// when Base picks a specific node).
	Count int `json:"count,omitempty"`
}

// churnResponse reports one committed mutation batch.
type churnResponse struct {
	Version int64         `json:"version"`
	N       int           `json:"n"`
	Bases   []int         `json:"bases"`
	Repair  churn.OpStats `json:"repair"`
}

// commitChurn runs op selection (pick, under the churn lock so two
// auto-joins cannot claim the same dormant base) and the mutation
// commit + swap atomically, then returns the response to send. The
// churn lock is released before the caller persists: fsync latency
// never sits inside the mutation critical section.
func (s *server) commitChurn(pick func() ([]churn.Op, *errorBody)) (churnResponse, *errorBody, error) {
	s.churnMu.Lock()
	defer s.churnMu.Unlock()
	ops, eb := pick()
	if eb != nil {
		return churnResponse{}, eb, nil
	}
	snap, err := s.mutator.Apply(ops...)
	if err != nil {
		return churnResponse{}, nil, err
	}
	s.engine.Swap(snap)
	// Re-anchor the object directory on the new membership: replicas on
	// departed nodes are re-published to the next-nearest survivor.
	// Inside churnMu, so object repairs are serialized with mutations.
	s.objDir.SetSnapshot(snap)
	bases := make([]int, len(ops))
	for i, op := range ops {
		bases[i] = op.Base
	}
	return churnResponse{
		Version: snap.Version,
		N:       snap.N(),
		Bases:   bases,
		Repair:  s.mutator.Stats().Last,
	}, nil, nil
}

// applyChurn commits the picked ops, persists the committed snapshot
// outside the churn lock (latest-wins coalescing: a mutation burst
// queues a handful of writes, not one per commit), and reports.
func (s *server) applyChurn(w http.ResponseWriter, pick func() ([]churn.Op, *errorBody)) {
	resp, eb, err := s.commitChurn(pick)
	if err != nil {
		writeError(w, err)
		return
	}
	if eb != nil {
		writeJSON(w, http.StatusBadRequest, *eb)
		return
	}
	if err := s.persistCurrent(); err != nil {
		writeInternalError(w, "persist", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		s.handleFleetJoin(w, r)
		return
	}
	if s.mutator == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: errNoChurn.Error()})
		return
	}
	var req joinRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("invalid join body: %v", err))
			return
		}
	}
	count := req.Count
	if count <= 0 {
		count = 1
	}
	s.applyChurn(w, func() ([]churn.Op, *errorBody) {
		if req.Base != nil && *req.Base >= 0 {
			return []churn.Op{{Kind: churn.Join, Base: *req.Base}}, nil
		}
		var ops []churn.Op
		for _, b := range s.mutator.DormantBases(count) {
			ops = append(ops, churn.Op{Kind: churn.Join, Base: b})
		}
		if len(ops) == 0 {
			return nil, &errorBody{
				Error: "universe at capacity: nothing to join",
				Code:  codeAtCapacity,
			}
		}
		return ops, nil
	})
}

func (s *server) handleLeave(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		s.handleFleetLeave(w, r)
		return
	}
	if s.mutator == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: errNoChurn.Error()})
		return
	}
	var req leaveRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("invalid leave body: %v", err))
			return
		}
	}
	count := req.Count
	if count <= 0 {
		count = 1
	}
	s.applyChurn(w, func() ([]churn.Op, *errorBody) {
		if req.Base != nil && *req.Base >= 0 {
			return []churn.Op{{Kind: churn.Leave, Base: *req.Base}}, nil
		}
		floor := s.mutator.Config().MinNodes
		seen := map[int]bool{}
		var ops []churn.Op
		for i := 0; i < count && s.mutator.N()-len(ops) > floor; i++ {
			u := s.churnRng.Intn(s.mutator.N())
			b := s.mutator.ActiveBase(u)
			for tries := 0; seen[b] && tries < 8; tries++ {
				b = s.mutator.ActiveBase(s.churnRng.Intn(s.mutator.N()))
			}
			if seen[b] {
				break
			}
			seen[b] = true
			ops = append(ops, churn.Op{Kind: churn.Leave, Base: b})
		}
		if len(ops) == 0 {
			return nil, &errorBody{
				Error: fmt.Sprintf("at the MinNodes=%d floor: nothing to retire", floor),
				Code:  codeBelowFloor,
			}
		}
		return ops, nil
	})
}

// churnStatsBody frames the mutator's report for /churn/stats.
type churnStatsBody struct {
	Enabled bool         `json:"enabled"`
	Stats   *churn.Stats `json:"stats,omitempty"`
	// Fleet carries the per-shard reports in fleet mode (Stats is then
	// unset; each shard owns its own mutator).
	Fleet *shard.FleetStats `json:"fleet,omitempty"`
}

func (s *server) handleChurnStats(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		if !s.fleet.ChurnEnabled() {
			writeJSON(w, http.StatusOK, churnStatsBody{Enabled: false})
			return
		}
		st := s.fleet.Stats()
		writeJSON(w, http.StatusOK, churnStatsBody{Enabled: true, Fleet: &st})
		return
	}
	if s.mutator == nil {
		writeJSON(w, http.StatusOK, churnStatsBody{Enabled: false})
		return
	}
	s.churnMu.Lock()
	st := s.mutator.Stats()
	s.churnMu.Unlock()
	writeJSON(w, http.StatusOK, churnStatsBody{Enabled: true, Stats: &st})
}

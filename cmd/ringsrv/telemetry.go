package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"rings/internal/oracle"
	"rings/internal/shard"
	"rings/internal/telemetry"
	"rings/internal/version"
)

// traceRingSize is the capacity of the sampled-query trace ring: large
// enough that a slow-query hunt sees a useful window, small enough to
// be dumped in one /debug/trace response.
const traceRingSize = 1024

// enableTelemetry wires the sampled trace ring (1-in-traceSample
// queries; 0 disables) and the online stretch auditor (auditFraction of
// served estimates; 0 disables sampling but keeps the zeroed series
// exposed). Must be called before the server starts serving.
func (s *server) enableTelemetry(traceSample int, auditFraction float64) {
	if s.auditor != nil {
		s.auditor.close() // reconfiguration (main over the constructor default)
	}
	s.traceRing = telemetry.NewTraceRing(traceRingSize)
	s.traceSampler = telemetry.NewSampler(traceSample)
	s.traceSampleRate = traceSample
	s.auditor = newAuditor(auditFraction, s.auditTrueDist)
	// Build identity as the conventional constant-1 info gauge.
	telemetry.Default.GaugeFamily("rings_build_info",
		"Build identity of the serving binary (constant 1).",
		"version", version.String()).With(version.String()).Set(1)
}

// enablePprof mounts net/http/pprof on the server's mux (the package's
// init-time registration targets http.DefaultServeMux, which this
// server never serves).
func (s *server) enablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// auditTrueDist resolves the exact distance for an audit record. In
// fleet mode the record's ids are global and the full base space
// answers any pair. In single-engine mode the ids are snapshot-local:
// a record from a swapped-out snapshot is unauditable (churn remaps
// ids), as is a flat-only warm start (no ground-truth index until
// hydration) — both are counted as skipped by the auditor.
func (s *server) auditTrueDist(rec auditRecord) (float64, bool) {
	if s.fleet != nil {
		d, err := s.fleet.TrueDist(rec.u, rec.v)
		return d, err == nil
	}
	snap := s.engine.Snapshot()
	if snap.Version != rec.version || snap.Idx == nil {
		return 0, false
	}
	return snap.Idx.Dist(rec.u, rec.v), true
}

// scheme names the estimator being served (every shard of a fleet builds
// from the same recipe).
func (s *server) scheme() string {
	if s.fleet != nil {
		return s.fleet.ShardSnapshot(0).Config.Scheme
	}
	return s.engine.Snapshot().Config.Scheme
}

// observeEstimate traces and audits one /estimate answer. A single
// engine's answer arrives wrapped with the zero shard attribution.
func (s *server) observeEstimate(res shard.EstimateResult, err error, start time.Time) {
	if err == nil {
		s.auditor.offer(auditRecord{
			u: res.U, v: res.V,
			lower: res.Lower, upper: res.Upper,
			version: res.Version,
			cross:   res.Cross,
		})
	}
	if !s.traceSampler.Sample() {
		return
	}
	rec := &telemetry.TraceRecord{
		Time:      start,
		Endpoint:  oracle.EndpointEstimate,
		Scheme:    s.scheme(),
		LatencyUs: float64(time.Since(start)) / float64(time.Microsecond),
	}
	if err != nil {
		rec.Err = err.Error()
	} else {
		rec.U, rec.V = res.U, res.V
		rec.Cached = res.Cached
		rec.Cross = res.Cross
		rec.ShardU, rec.ShardV = res.UShard, res.VShard
		rec.Version = uint64(res.Version)
		rec.Lower, rec.Upper, rec.OK = res.Lower, res.Upper, res.OK
	}
	s.traceRing.Record(rec)
}

// handleMetrics serves the Prometheus text exposition: the process
// Default registry (persist/open timings, build info), the auditor,
// and the engine's registries — in fleet mode the fleet registry plus
// every shard's engine (and churn) registries under "shardN_" name
// prefixes, so one page carries the whole fleet without name
// collisions.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	groups := []telemetry.Group{{R: telemetry.Default}, {R: s.auditor.reg}}
	if s.fleet != nil {
		groups = append(groups, telemetry.Group{R: s.fleet.Metrics()})
		groups = append(groups, telemetry.Group{R: s.fleet.ObjectsMetrics()})
		for i := 0; i < s.fleet.K(); i++ {
			prefix := fmt.Sprintf("shard%d_", i)
			groups = append(groups, telemetry.Group{Prefix: prefix, R: s.fleet.ShardEngine(i).Metrics()})
			if creg := s.fleet.ShardChurnMetrics(i); creg != nil {
				groups = append(groups, telemetry.Group{Prefix: prefix, R: creg})
			}
		}
	} else {
		groups = append(groups, telemetry.Group{R: s.engine.Metrics()})
		if s.mutator != nil {
			groups = append(groups, telemetry.Group{R: s.mutator.Metrics()})
		}
		if s.objMetrics != nil {
			groups = append(groups, telemetry.Group{R: s.objMetrics.Reg})
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WriteText(w, groups...); err != nil {
		// Headers are gone; the log line is the only visibility.
		log.Printf("ringsrv: write /metrics: %v", err)
	}
}

// traceBody frames /debug/trace: sampled per-query decision records,
// oldest first.
type traceBody struct {
	SampleRate int                      `json:"sample_rate"` // 1-in-N; 0 = disabled
	Records    []*telemetry.TraceRecord `json:"records"`
}

// handleTrace dumps the trace ring. ?n=K keeps only the most recent K
// records.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	records := s.traceRing.Snapshot()
	if raw := queryParam(r.URL.RawQuery, "n"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("parameter %q: want a non-negative integer, got %q", "n", raw))
			return
		}
		if n < len(records) {
			records = records[len(records)-n:]
		}
	}
	writeJSON(w, http.StatusOK, traceBody{SampleRate: s.traceSampleRate, Records: records})
}

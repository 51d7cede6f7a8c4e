// Command ringsrv serves a distance oracle over HTTP/JSON: it builds
// the paper's structures (Theorem 3.4 labels, the Meridian ring
// overlay, the Theorem 2.1 metric router) over a synthetic
// workload once, then answers query traffic from an oracle.Engine with
// lock-free snapshot reads and a sharded result cache. A single engine
// serves one state however it booted: a cold boot and a POST /snapshot
// rebuild serve the build's label arena restored over a lazy ball index
// with the overlay (oracle.BuildServed), as a warm boot serves its file,
// and drop the build; the first /route builds the router.
//
//	ringsrv -workload latency -n 256
//	ringsrv -workload latency -n 1024 -snapshot-file latency.snap
//
// Endpoints:
//
//	GET  /healthz                  liveness + snapshot identity
//	GET  /estimate?u=U&v=V         one (1+δ)-approximate distance estimate
//	POST /batch                    {"pairs":[{"u":U,"v":V},...]}
//	GET  /nearest?target=T         Meridian nearest-member climb
//	GET  /route?src=S&dst=D        simulated compact-routing packet
//	POST /snapshot                 rebuild on a fresh seed, zero-downtime swap
//	GET  /stats                    engine counters and latency summaries (views of /metrics)
//	POST /join                     -churn: activate dormant nodes (localized repair + swap)
//	POST /leave                    -churn: retire active nodes (localized repair + swap)
//	GET  /churn/stats              -churn: cumulative repair report
//	GET  /metrics                  Prometheus text exposition (fleet mode: shardN_ prefixes)
//	GET  /debug/trace              sampled per-query trace ring (-trace-sample)
//	GET  /replica                  fleet: replica roster (state, era, breaker)
//	POST /replica                  fleet: {"shard":S,"replica":R,"action":"kill"|"restart"}
//	POST /publish                  object location: {"object":"name","node":N}
//	POST /unpublish                object location: {"object":"name","node":N}
//	GET  /lookup?object=O&from=N   nearest replica + certified distance
//	GET  /objects/stats            object directory report
//	/debug/pprof/*                 runtime profiles (-pprof)
//
// A /batch body is exactly that shape: whitespace is free, "u" and "v"
// come in either order, ids are plain integers, at most 4096 pairs and
// 4 MiB. Unknown, repeated or missing keys, null, non-integer numbers
// and anything after the closing brace are a 400 (batchcodec.go has the
// full contract).
//
// With -shards K the server builds a partitioned fleet (internal/shard)
// instead of one engine: the node universe splits round-robin across K
// shards, each with its own snapshot and engine, and node ids in every
// request are global. Intra-shard queries delegate to the owning
// engine; cross-shard estimates come from the shared beacon tier
// (answers carry "cross": true); cross-shard routes return 501 with
// code "cross_shard". /stats returns the fleet aggregation plus
// per-shard reports (?shard=i narrows to one engine), /snapshot is
// refused (restart to rebuild a fleet), and with -churn each join or
// leave routes to the owning shard and repairs only that shard.
//
// With -replicas R (implies fleet mode, composing with -shards) every
// shard keeps R serving copies: replica 0 is the authoritative engine
// and the rest are restored from its serialized snapshot and kept
// current by shipping on every commit, so any replica answers
// byte-identically. The copies live in this process, so a read runs
// inline on one of them (rotated) and fails over in place — they are
// here for failover and to rehearse snapshot shipping, not to race each
// other; a background prober circuit-breaks unhealthy
// replicas, resyncs and reinstates them; every routed operation is
// fenced on the partition-map epoch. /healthz reports degraded and
// replicas_down while redundancy is reduced, and /replica is the
// chaos-harness kill switch. Requests beyond -max-inflight are shed
// with 503 "overloaded" (never queued unbounded), and a fully-down
// shard answers 503 "unavailable" rather than falling back silently.
//
// ringsrv reads its own sockets (conn.go, DESIGN §6 "Connection loop"):
// a plain HTTP/1.1 GET or Content-Length POST is framed by the server's
// own loop; a connection that sends anything else (HTTP/1.0, chunked or
// Expect bodies, HEAD, escaped targets, /debug/) is handed, bytes
// replayed, to net/http. Both call the same handlers. -request-timeout
// bounds a request's arrival, not its handler: once the first byte is in,
// the rest of the head — and on the loop the Content-Length body, read
// before an admission slot is taken — is due within it, or the
// connection closes. /metrics splits requests by front-end
// (rings_http_requests_total) and hand-offs by reason
// (rings_http_handoffs_total).
//
// With -churn the server owns an incremental churn engine
// (internal/churn): joins and leaves repair only the affected parts of
// the serving structures and swap a structurally shared delta snapshot
// in, so membership changes cost milliseconds instead of a rebuild.
// With -snapshot-file the server persists the snapshot on every swap
// and warm-starts from the file on boot, skipping the label build and
// serving from the mapped file itself (a warm boot never rewrites it).
// A file this binary cannot serve (v1, a pre-shared-lists arena, a bad
// checksum) or built under another value of a recipe flag the operator
// set (-workload, its size knobs, -seed, -delta, -profile, -members,
// -no-overlay) stops the boot with an error naming the problem, never a
// cold build over it. Combining the two flags, the churn engine still
// persists every committed delta (a plain server can warm-start from
// it, churned membership included) but itself always boots fresh: the
// file holds the served arena, not the repair state (rings, Z-sets,
// virtual sets) the byte-identity contract is kept on.
//
// Observability: /metrics exposes every layer's counters and
// histograms in Prometheus text format (one page per process; fleet
// mode prefixes each shard's engine series with "shardN_").
// -trace-sample N records every N-th query into a lock-free ring
// served at /debug/trace; -audit F re-audits a fraction F of served
// estimates against the exact distance in the background, exporting
// realized-stretch and certificate-width histograms plus a violation
// counter. -pprof mounts net/http/pprof under /debug/pprof/.
//
// cmd/ringload is the matching closed-loop load generator (-churn
// drives the admin endpoints under query load).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"rings/internal/churn"
	"rings/internal/objects"
	"rings/internal/oracle"
	"rings/internal/shard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ringsrv:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8390", "listen address")
		wl         = flag.String("workload", "latency", "grid | cube | expline | latency")
		n          = flag.Int("n", 256, "node count (cube, expline, latency)")
		side       = flag.Int("side", 8, "grid side (grid)")
		logA       = flag.Float64("logaspect", 60, "log2 aspect ratio (expline)")
		seed       = flag.Int64("seed", 1, "workload seed")
		delta      = flag.Float64("delta", 0.5, "target approximation (0, 1]")
		scheme     = flag.String("scheme", oracle.SchemeLabels, "estimator: labels (the only one)")
		profile    = flag.String("profile", oracle.ProfileTuned, "ring constants: paper | tuned")
		verify     = flag.Bool("verify", false, "after each build, check every pair's served estimate: lower <= d <= upper <= (1+delta)*d (O(n^2))")
		workers    = flag.Int("workers", 0, "index build workers (0 = GOMAXPROCS)")
		members    = flag.Int("members", 4, "overlay member stride (every k-th node)")
		noOverlay  = flag.Bool("no-overlay", false, "skip the ring overlay (disables /nearest)")
		shards     = flag.Int("cache-shards", 16, "estimate cache shards")
		cacheCap   = flag.Int("cache-cap", 4096, "estimate cache entries per shard (-1 disables)")
		churnOn    = flag.Bool("churn", false, "enable the incremental churn engine (POST /join, /leave)")
		churnCap   = flag.Int("churn-capacity", 0, "churn universe capacity (0 = 2n; grid: the full lattice)")
		churnMin   = flag.Int("churn-min", 0, "refuse leaves below this node count (0 = default; with -shards: per shard)")
		shardK     = flag.Int("shards", 1, "serve a partitioned fleet of this many shards (1 = single engine)")
		replicaR   = flag.Int("replicas", 1, "serving replicas per shard (in-process snapshot-shipped copies with health probes, breakers and failover; >1 implies fleet mode)")
		beacons    = flag.Int("beacons", 0, "cross-shard beacon count (0 = 2*ceil(log2 n)+4)")
		inflight   = flag.Int("max-inflight", 1024, "admission limit on concurrent requests; beyond it requests are shed with 503 \"overloaded\" instead of queuing (0 = unbounded; /healthz and /metrics exempt)")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "once a request's first byte has arrived, the rest of it (head, and a Content-Length body on the connection loop) is due within this or the connection is closed (0 disables)")
		snapFile   = flag.String("snapshot-file", "", "persist the snapshot here on every swap; warm-start from it on boot (without -churn: under -churn the engine owns membership and always boots fresh, but keeps the file current for a later plain warm start)")
		drain      = flag.Duration("drain-timeout", 5*time.Second, "in-flight request drain budget on shutdown")
		traceN     = flag.Int("trace-sample", 0, "record every N-th query into the /debug/trace ring (0 disables)")
		auditFrac  = flag.Float64("audit", 0, "re-audit this fraction of served estimates against the exact distance (0 disables)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	set := map[string]bool{} // the flags the operator set
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	cfg := oracle.Config{
		Workload:     *wl,
		N:            *n,
		Side:         *side,
		LogAspect:    *logA,
		Seed:         *seed,
		Delta:        *delta,
		Scheme:       *scheme,
		Profile:      *profile,
		Verify:       *verify,
		Workers:      *workers,
		MemberStride: *members,
		SkipOverlay:  *noOverlay,
	}
	// -scheme accepts only labels; the flag stays because bench/ passes
	// it (ROADMAP item 1a).
	if err := oracle.CheckScheme(cfg.WithDefaults().Scheme); err != nil {
		return err
	}

	// serve finishes the boot of either mode: telemetry and limits,
	// boot-time persistence (warmFleet: the fleet was opened from its
	// shard files), then requests until SIGINT/SIGTERM.
	serve := func(handler *server, warmFleet bool) error {
		handler.enableTelemetry(*traceN, *auditFrac)
		handler.enableLimits(*inflight)
		if *pprofOn {
			handler.enablePprof()
		}
		if *snapFile != "" {
			if err := handler.bootPersist(*snapFile, warmFleet); err != nil {
				return fmt.Errorf("persist %s: %w", *snapFile, err)
			}
		}
		srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: *reqTimeout}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		log.Printf("serving on http://%s", *addr)
		err := gracefulServe(srv, ctx, *drain)
		if ctx.Err() != nil {
			log.Printf("shut down cleanly (in-flight requests drained)")
		}
		return err
	}

	if *shardK > 1 || *replicaR > 1 {
		fleetCfg := shard.Config{
			Oracle:        cfg,
			Shards:        *shardK,
			Replicas:      *replicaR,
			Beacons:       *beacons,
			Churn:         *churnOn,
			ChurnCapacity: *churnCap,
			MinShardNodes: *churnMin,
			Engine: oracle.EngineOptions{
				CacheShards:   *shards,
				CacheCapacity: *cacheCap,
			},
		}
		var fleet *shard.Fleet
		var err error
		warm := *snapFile != "" && !*churnOn && shard.SnapshotFilesExist(*snapFile, *shardK)
		switch {
		case warm:
			log.Printf("warm-starting %d-shard fleet from %s.shard*", *shardK, *snapFile)
			fleet, err = shard.OpenFleet(fleetCfg, *snapFile)
			if err != nil {
				return fmt.Errorf("fleet warm start: %w", err)
			}
			log.Printf("warm start ready: %s n=%d shards=%d (label builds skipped)",
				fleet.Name(), fleet.N(), fleet.K())
		default:
			if *snapFile != "" && *churnOn {
				// Mirrors the single-engine contract: the churn fleet owns
				// membership and boots fresh, but keeps every shard's file
				// current for a later plain warm start.
				log.Printf("churn fleet boots fresh; %s.shard* stay current for a plain warm start", *snapFile)
			}
			log.Printf("building %d-shard fleet: workload=%s scheme=%s profile=%s churn=%v",
				*shardK, *wl, *scheme, *profile, *churnOn)
			fleet, err = shard.NewFleet(fleetCfg)
			if err != nil {
				return err
			}
			log.Printf("fleet ready: %s n=%d shards=%d replicas=%d beacons=%d build=%v",
				fleet.Name(), fleet.N(), fleet.K(), fleet.Replicas(), fleet.Beacons(),
				fleet.BuildElapsed().Round(time.Millisecond))
		}
		defer fleet.Close()
		return serve(newFleetServer(fleet, *seed), warm)
	}

	var (
		snap    *oracle.Snapshot
		mutator *churn.Mutator
	)
	switch {
	case *churnOn:
		// The churn engine owns the substrate; an existing snapshot file
		// is ignored for state (membership lives in the mutator) but the
		// file still receives every committed delta below.
		log.Printf("building churn engine: workload=%s scheme=%s profile=%s", *wl, *scheme, *profile)
		var err error
		mutator, err = churn.NewMutator(churn.Config{Oracle: cfg, Capacity: *churnCap, MinNodes: *churnMin})
		if err != nil {
			return err
		}
		snap = mutator.Snapshot()
		log.Printf("churn engine ready: n=%d capacity=%d", mutator.N(), mutator.Config().Capacity)
	case *snapFile != "":
		_, err := os.Stat(*snapFile)
		switch {
		case err == nil:
			log.Printf("warm-starting from %s", *snapFile)
			// O(header) open: the mapped file serves estimates at once, and
			// hydration builds a lazy index (no sorted rows) and the overlay
			// around it in the background.
			// A file this binary cannot serve (v1, pre-PR-13 layout, corrupt)
			// or built under another value of a recipe flag the operator set
			// is an error, never a cold build over it.
			loaded, rerr := oracle.OpenSnapshotFile(*snapFile)
			if rerr == nil {
				if rerr = loaded.CheckRecipe(cfg, func(knob string) bool { return set[knob] }); rerr != nil {
					loaded.Close()
				}
			}
			if rerr != nil {
				return fmt.Errorf("warm start from %s: %w", *snapFile, rerr)
			}
			snap = loaded
			log.Printf("warm start ready: %s n=%d (label build skipped, mapped=%v)",
				snap.Name, snap.N(), snap.Flat.Mapped())
		case os.IsNotExist(err):
			// First boot: fall through to the cold build (which persists).
		default:
			// Anything else (permissions, I/O) must not silently cold-build
			// and then overwrite the file with a different node set.
			return fmt.Errorf("snapshot file %s: %w", *snapFile, err)
		}
		fallthrough
	default:
		if snap == nil {
			// The cold boot serves what a warm boot serves: the build's
			// arena restored over a lazy index, the build itself dropped.
			// Its pages go back to the OS now, not when the scavenger gets
			// to them, so the process holds what it serves.
			log.Printf("building snapshot: workload=%s scheme=%s profile=%s", *wl, *scheme, *profile)
			built, err := oracle.BuildServed(cfg)
			if err != nil {
				return err
			}
			debug.FreeOSMemory()
			snap = built
			log.Printf("snapshot ready: %s n=%d build=%v routing=%v overlay=%v",
				snap.Name, snap.N(), snap.BuildElapsed.Round(time.Millisecond),
				snap.Routable(), snap.Overlay != nil)
		}
	}

	engine := oracle.NewEngine(snap, oracle.EngineOptions{
		CacheShards:   *shards,
		CacheCapacity: *cacheCap,
	})
	handler := newServer(engine)
	if mutator != nil {
		handler.enableChurn(mutator, *seed)
		// Rebuild the (still empty) object directory with the frozen base
		// metric, so churn repairs can re-place replicas next-nearest.
		handler.enableObjects(objects.Config{
			Seed:     cfg.Seed,
			BaseDist: mutator.FrozenSpace().Base().Dist,
		})
	}
	return serve(handler, false)
}

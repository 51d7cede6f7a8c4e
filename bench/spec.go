package main

import (
	"strconv"
	"time"
)

// metricDef names one reported metric. The end-to-end list and the
// per-layer list below are the benchmark's contract with BENCHMARK.json;
// TestBenchmarkJSONMatches fails when the two drift apart.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
}

// endToEnd is what a user of ringsrv sees. Every run without -trace
// reports exactly these, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"req_per_s", "1/s", true},
	{"p50_us", "us", false},
	{"p99_us", "us", false},
	{"srv_cpu_us_per_req", "us", false},
	{"rss_mb", "MB", false},
	{"stretch_mean", "ratio", false},
}

// perLayer is one row per layer measurement, named <module>.<what>.
// Every -trace 1 run reports exactly these; a metric whose layer the
// workload never calls reads 0 (the layer spends no time there).
var perLayer = []metricDef{
	{"ringsrv.estimate.self_us", "us", false},
	{"ringsrv.nearest.self_us", "us", false},
	{"ringsrv.route.self_us", "us", false},
	{"ringsrv.lookup.self_us", "us", false},
	{"ringsrv.batch.self_us_per_pair", "us", false},
	{"ringsrv.req_bytes_per_answer", "B", false},
	{"ringsrv.resp_bytes_per_answer", "B", false},
	{"ringsrv.cpu_user_us_per_req", "us", false},
	{"ringsrv.cpu_sys_us_per_req", "us", false},
	{"ringsrv.mutation.p50_ms", "ms", false},
	{"ringsrv.mutation.max_ms", "ms", false},
	{"ringsrv.publish.p50_us", "us", false},
	{"ringsrv.shed_total", "count", false},
	{"ringsrv.tolerated_races", "count", false},
	// The paced latencies are end-to-end quantities, demoted from the
	// gated list: from run to run on the reference box the median spreads
	// up to 25% and the tail 25-80% (README, "Bounds").
	{"ringsrv.paced_p50_us", "us", false},
	{"ringsrv.paced_p99_us", "us", false},
	{"ringsrv.rss_boot_mb", "MB", false},
	{"ringsrv.hydrate_s", "s", false},

	{"shard.estimate_intra.p50_us", "us", false},
	{"shard.estimate_intra.p99_us", "us", false},
	{"shard.estimate_cross.p50_us", "us", false},
	{"shard.estimate_cross.p99_us", "us", false},
	{"shard.route_self_us", "us", false},
	{"shard.batch.ns_per_pair", "ns", false},
	{"shard.lookup.p50_us", "us", false},
	{"shard.lookup.remote_frac", "ratio", false},
	{"shard.publish.p50_us", "us", false},
	{"shard.hedges_per_kreq", "count", false},
	{"shard.hedge_win_frac", "ratio", true},
	{"shard.failovers_total", "count", false},
	{"shard.epoch_retries_total", "count", false},
	{"shard.cross_stretch_mean", "ratio", false},
	{"shard.cross_unbounded_frac", "ratio", false},
	{"shard.build.wall_s", "s", false},

	{"oracle.estimate_miss.p50_us", "us", false},
	{"oracle.estimate_miss.p99_us", "us", false},
	{"oracle.estimate_hit.p50_us", "us", false},
	{"oracle.cache.hit_ratio", "ratio", true},
	{"oracle.batch.ns_per_pair", "ns", false},
	{"oracle.batch_mapped.ns_per_pair", "ns", false},
	{"oracle.batch.allocs_per_op", "count", false},
	{"oracle.nearest.p50_us", "us", false},
	{"oracle.nearest.stretch_mean", "ratio", false},
	{"oracle.route.p50_us", "us", false},
	{"oracle.swap.p50_us", "us", false},
	{"oracle.arena.bytes_per_node", "B", false},
	{"oracle.persist.write_s", "s", false},
	{"oracle.persist.file_mb", "MB", false},
	{"oracle.persist.open_s", "s", false},
	{"oracle.persist.restore_s", "s", false},
	{"oracle.build.wall_s", "s", false},
	{"oracle.build.index_s", "s", false},
	{"oracle.build.triangulation_s", "s", false},
	{"oracle.build.labels_s", "s", false},
	{"oracle.build.overlay_s", "s", false},
	{"oracle.build.router_s", "s", false},

	{"distlabel.estimate.p50_us", "us", false},
	{"distlabel.wire_bits_per_label", "bit", false},

	{"objects.lookup.p50_us", "us", false},
	{"objects.lookup.hops_mean", "count", false},
	{"objects.lookup.allocs_per_op", "count", false},
	{"objects.publish.p50_us", "us", false},
	{"objects.set_snapshot.ms", "ms", false},

	{"churn.join.p50_ms", "ms", false},
	{"churn.leave.p50_ms", "ms", false},
	{"churn.commit.max_ms", "ms", false},
	{"churn.repaired_labels_mean", "count", false},
	{"churn.full_fallbacks_total", "count", false},

	{"bench.cpu_us_per_req", "us", false},
	{"bench.paced_late_frac", "ratio", false},
	{"bench.trace_overhead_frac", "ratio", false},
	{"bench.build_s", "s", false},
	// fail_frac is an end-to-end quantity, but it is 0 on every healthy
	// run and a gate needs a nonzero median to take a share of; the gate
	// on failures is the result line's correct/attempted/failed.
	{"bench.fail_frac", "ratio", false},
}

// Request kinds. A stream element is one HTTP request.
type kind uint8

const (
	kEstimate kind = iota
	kBatch
	kNearest
	kRoute
	kLookup
	kMove // drawn from the mix; emitted as kUnpublish then kPublish
	kPublish
	kUnpublish
	kJoin
	kLeave
	numKinds
)

var kindNames = [numKinds]string{"estimate", "batch", "nearest", "route", "lookup", "move", "publish", "unpublish", "join", "leave"}

func (k kind) String() string { return kindNames[k] }

// Dataset constants shared by every workload: the latency metric from
// ringsrv -seed 1, Thm 3.4 labels, tuned ring profile, δ = 0.5. The
// query-stream seed is the benchmark's -seed; the dataset never moves.
const (
	datasetSeed   = 1
	memberStride  = 4 // ringsrv -members default: every 4th node is an overlay member
	fleetShards   = 4
	fleetReplicas = 2
	numObjects    = 64
	objReplicas   = 4
	movingEvery   = 4 // objects with index%4 == 3 move; the rest are static
	estimatePool  = 8192
	zipfS         = 1.1
	mutationEvery = 500 * time.Millisecond
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// n is ringsrv -n at full scale (the smoke test shrinks it).
	n int
	// flags are the ringsrv flags beyond the dataset ones.
	fleet, churn, warm bool
	// mix holds the weight of each request kind; moves are issued by
	// client 0 only (client 1 redistributes that weight over the rest).
	mix [numKinds]int
	// batchPairs is the size of one /batch request.
	batchPairs int
	// pacedRate is the open-loop phase's total request rate across both
	// connections, fixed at ≈40% of the seed commit's closed-loop rate.
	pacedRate float64
	// closedWindow and pacedWindow are the lengths of the windows that
	// throughput and percentiles are computed over before the median
	// across windows is taken: the smallest whole number of seconds
	// holding ≥1,000 requests at the seed commit.
	closedWindow, pacedWindow time.Duration
	// tracedReqs is the length of the traced single-client pass.
	tracedReqs int
}

var workloads = []workload{
	{
		name: "point-uniform",
		why:  "GET /estimate, uniform pairs over 1M ordered pairs (cache misses): HTTP+JSON+admission is nearly all the time, the walk almost none",
		n:    1024,
		mix:  [numKinds]int{kEstimate: 1},
		// Seed commit closed loop ≈ 8.5k req/s on the 2-core reference box.
		pacedRate: 3300, closedWindow: time.Second, pacedWindow: time.Second,
		tracedReqs: 20000,
	},
	{
		name: "batch-warm",
		why:  "POST /batch of 256 uniform pairs on an engine warm-started from a v2 snapshot file: per-pair walk and JSON dominate, cache bypassed",
		n:    1024, warm: true,
		mix: [numKinds]int{kBatch: 1}, batchPairs: 256,
		// Seed commit closed loop ≈ 660 req/s. The paced windows hold ≈500
		// requests, not 1,000: the run-time cap leaves the paced phase 8 s.
		pacedRate: 260, closedWindow: 2 * time.Second, pacedWindow: 2 * time.Second,
		tracedReqs: 2000,
	},
	{
		name: "fleet-mixed",
		why:  "4 shards x 2 replicas, Zipf estimates (half cross-shard), nearest, route, object lookups and moves: routing, hedged reads, warm caches, writes beside reads",
		n:    1024, fleet: true,
		mix: [numKinds]int{kEstimate: 40, kNearest: 20, kRoute: 10, kLookup: 25, kMove: 5},
		// Seed commit closed loop ≈ 7.5k req/s.
		pacedRate: 3000, closedWindow: time.Second, pacedWindow: time.Second,
		tracedReqs: 20000,
	},
	{
		name: "churn-mixed",
		why:  "single engine under -churn with per-commit persistence: estimate/batch-16/nearest queries while a join or leave commits every 500 ms",
		n:    512, churn: true,
		mix: [numKinds]int{kEstimate: 6, kBatch: 1, kNearest: 2}, batchPairs: 16,
		// Seed commit closed loop ≈ 6k req/s.
		pacedRate: 2400, closedWindow: time.Second, pacedWindow: time.Second,
		tracedReqs: 20000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scale sets how large and how long a run is. main uses fullScale; the
// smoke test in tier-1 uses a tiny one so every workload still runs
// against a real ringsrv in a few seconds.
type scale struct {
	// n overrides workload.n when nonzero.
	n int
	// setupRepeats is how many times the server is set up; setup_s is the
	// median, and the last set-up serves the run.
	setupRepeats, warmBoots int
	warmup                  time.Duration
	// measure is -seconds: two thirds closed loop, one third paced (and
	// in a traced run: a third each untraced, traced, single-client pass).
	measure time.Duration
	// window overrides the workload's window lengths when nonzero.
	window time.Duration
	// tracedShrink divides workload.tracedReqs when above 1;
	// mutationEvery is the churn cadence.
	tracedShrink  int
	mutationEvery time.Duration
	// pacedRate overrides workload.pacedRate when nonzero.
	pacedRate float64
}

func fullScale(seconds int) scale {
	return scale{
		setupRepeats:  3,
		warmBoots:     5,
		warmup:        3 * time.Second,
		measure:       time.Duration(seconds) * time.Second,
		mutationEvery: mutationEvery,
	}
}

// serverArgs are the ringsrv flags of a workload at node count n.
func (w *workload) serverArgs(n int, snapFile string) []string {
	args := []string{
		"-workload", "latency", "-seed", "1", "-scheme", "labels",
		"-profile", "tuned", "-delta", "0.5", "-n", strconv.Itoa(n),
	}
	switch {
	case w.fleet:
		args = append(args, "-shards", strconv.Itoa(fleetShards), "-replicas", strconv.Itoa(fleetReplicas))
	case w.churn:
		args = append(args, "-churn", "-churn-capacity", strconv.Itoa(2*n), "-snapshot-file", snapFile)
	case w.warm:
		args = append(args, "-snapshot-file", snapFile)
	}
	return args
}

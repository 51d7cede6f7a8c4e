package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"rings/internal/churn"
)

// smokeScale shrinks a run to a few seconds: every workload still boots a
// real ringsrv, warms up, runs both phases and verifies every answer.
var smokeScale = scale{
	n:             64,
	setupRepeats:  1,
	warmBoots:     1,
	warmup:        100 * time.Millisecond,
	measure:       1500 * time.Millisecond,
	window:        500 * time.Millisecond,
	tracedShrink:  25,
	mutationEvery: 200 * time.Millisecond,
	pacedRate:     400,
}

var testEnv *env

func TestMain(m *testing.M) {
	e, err := newEnv(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench test:", err)
		os.Exit(1)
	}
	testEnv = e
	os.Exit(m.Run())
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkReport asserts a run emitted exactly the metrics of defs, each
// finite and well named, through the contract's result line.
func checkReport(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	raw, err := resultLine(res, defs)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line %s: %v", raw, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("result line misses a key: %s", raw)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(defs))
	}
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		listed[d.name] = true
	}
	for name := range res.Metrics {
		if !listed[name] {
			t.Errorf("run measured %q, which is not in the metric list (it would never be printed)", name)
		}
	}
	for _, d := range defs {
		if !metricNameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not well formed", d.name)
		}
		got, ok := line.Metrics[d.name]
		if !ok || got.Value == nil {
			t.Errorf("metric %s not emitted", d.name)
			continue
		}
		if got.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, got.Unit, d.unit)
		}
		if math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
			t.Errorf("metric %s = %v", d.name, *got.Value)
		}
	}
}

// layersAtWork lists, per workload, per-layer metrics whose layer the
// workload exercises: they must not read 0 there (elsewhere a layer that
// is never called reads 0 by design).
var layersAtWork = map[string][]string{
	"point-uniform": {"ringsrv.estimate.self_us", "oracle.estimate_miss.p50_us", "oracle.build.wall_s", "oracle.arena.bytes_per_node", "distlabel.wire_bits_per_label", "distlabel.estimate.p50_us", "bench.cpu_us_per_req", "ringsrv.resp_bytes_per_answer"},
	"batch-warm":    {"ringsrv.batch.self_us_per_pair", "oracle.batch.ns_per_pair", "oracle.batch_mapped.ns_per_pair", "oracle.batch.allocs_per_op", "oracle.persist.write_s", "oracle.persist.file_mb", "oracle.persist.open_s", "oracle.persist.restore_s", "ringsrv.hydrate_s"},
	"fleet-mixed":   {"ringsrv.lookup.self_us", "shard.estimate_intra.p50_us", "shard.estimate_cross.p50_us", "shard.batch.ns_per_pair", "shard.lookup.p50_us", "shard.publish.p50_us", "shard.cross_stretch_mean", "shard.build.wall_s", "oracle.estimate_hit.p50_us", "oracle.cache.hit_ratio", "oracle.nearest.stretch_mean", "objects.lookup.p50_us", "objects.publish.p50_us", "ringsrv.publish.p50_us"},
	"churn-mixed":   {"ringsrv.mutation.p50_ms", "churn.join.p50_ms", "churn.leave.p50_ms", "churn.commit.max_ms", "churn.repaired_labels_mean", "oracle.swap.p50_us", "oracle.persist.write_s", "oracle.nearest.p50_us"},
}

// TestSmoke runs every workload, untraced and traced, at n=64 against a
// real ringsrv subprocess.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(context.Background(), testEnv, w, smokeScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name])
				}
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			t.Parallel()
			res, err := runTraced(context.Background(), testEnv, w, smokeScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, res, perLayer)
			for _, name := range layersAtWork[w.name] {
				if res.Metrics[name] == 0 {
					t.Errorf("%s reads 0 on %s, where its layer does the work", name, w.name)
				}
			}
			st, err := os.Stat(filepath.Join(testEnv.out, "trace-"+w.name+".jsonl"))
			if err != nil || st.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the binary's own
// workload and metric lists from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	bf, err := loadBenchmarkFile(testEnv.root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", bf.Command, bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, binary runs %v", names, workloadNames())
	}
	check := func(list string, file []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, binary emits %d", list, len(file), len(defs))
			return
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			want := benchmarkMetric{Name: d.name, Unit: d.unit, Better: better, Bound: file[i].Bound}
			if file[i] != want {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, binary emits %+v", list, i, file[i], want)
			}
			if bounded != (file[i].Bound > 0) || file[i].Bound > 0.25 {
				t.Errorf("%s metric %s: bound %v", list, d.name, file[i].Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestVerifierRejectsCorruption proves the verifier can fail: canned
// answers built from the ground truth pass, and each fails once a single
// field is corrupted.
func TestVerifierRejectsCorruption(t *testing.T) {
	tr, err := newTruth(findWorkload("point-uniform"), 64)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.space.Dist(3, 17)
	decode := func(k kind, body string) *answer {
		var a answer
		if err := decodeAnswer(k, 200, []byte(body), &a); err != nil {
			t.Fatal(err)
		}
		return &a
	}

	estimate := func(lower, upper float64, u int) string {
		return fmt.Sprintf(`{"u":%d,"v":17,"lower":%g,"upper":%g,"ok":true,"version":1,"cached":false}`, u, lower, upper)
	}
	if _, err := tr.checkEstimate(3, 17, &decode(kEstimate, estimate(d*0.9, d*1.1, 3)).est); err != nil {
		t.Errorf("honest estimate rejected: %v", err)
	}
	for name, body := range map[string]string{
		"upper below d":  estimate(d*0.9, d*0.99, 3),
		"lower above d":  estimate(d*1.01, d*1.1, 3),
		"wrong endpoint": estimate(d*0.9, d*1.1, 4),
	} {
		if _, err := tr.checkEstimate(3, 17, &decode(kEstimate, body).est); err == nil {
			t.Errorf("estimate with %s accepted", name)
		}
	}
	if _, err := tr.checkEstimate(5, 5, &estimateAns{U: 5, V: 5, Upper: 1e-9, OK: true}); err == nil {
		t.Error("nonzero self pair accepted")
	}

	req := &request{kind: kBatch, pairs: []pair{{3, 17}, {3, 17}}, salt: 0}
	batch := func(v2 int64) string {
		return fmt.Sprintf(`{"results":[%s,{"u":3,"v":17,"lower":0,"upper":%g,"ok":true,"version":%d}]}`, estimate(d*0.9, d*1.1, 3), d*2, v2)
	}
	if _, err := tr.checkBatch(req, decode(kBatch, batch(1)).batch, nil); err != nil {
		t.Errorf("honest batch rejected: %v", err)
	}
	if _, err := tr.checkBatch(req, decode(kBatch, batch(2)).batch, nil); err == nil {
		t.Error("batch mixing two versions accepted")
	}

	dm := tr.space.Dist(9, 12)
	nearest := func(member int, dist float64) string {
		return fmt.Sprintf(`{"target":9,"member":%d,"dist":%g,"hops":1,"path":[0,%d],"version":1}`, member, dist, member)
	}
	if err := tr.checkNearest(9, &decode(kNearest, nearest(12, dm)).near); err != nil {
		t.Errorf("honest nearest rejected: %v", err)
	}
	if err := tr.checkNearest(9, &decode(kNearest, nearest(13, tr.space.Dist(9, 13))).near); err == nil {
		t.Error("nearest answering a non-member accepted")
	}
	if err := tr.checkNearest(9, &decode(kNearest, nearest(12, dm*1.5)).near); err == nil {
		t.Error("nearest with a wrong distance accepted")
	}

	tr.objs = []objState{{cur: []int{10, 20, 30}}, {cur: []int{10, 20}, recent: []int{10, 20, 30, 40}, moving: true}}
	best, bestD := -1, 0.0
	for _, r := range tr.objs[0].cur {
		if dr := tr.space.Dist(5, r); best < 0 || dr < bestD {
			best, bestD = r, dr
		}
	}
	lookup := func(obj, node int) string {
		return fmt.Sprintf(`{"object":%q,"node":%d,"dist":%g,"hops":0,"stable":%d}`, objectName(obj), node, tr.space.Dist(5, node), node)
	}
	if err := tr.checkLookup(0, 5, &decode(kLookup, lookup(0, best)).look); err != nil {
		t.Errorf("honest lookup rejected: %v", err)
	}
	for _, other := range tr.objs[0].cur {
		if other != best {
			if err := tr.checkLookup(0, 5, &decode(kLookup, lookup(0, other)).look); err == nil {
				t.Errorf("static lookup answering replica %d instead of the nearest %d accepted", other, best)
			}
		}
	}
	if err := tr.checkLookup(1, 5, &decode(kLookup, lookup(1, 40)).look); err != nil {
		t.Errorf("moving lookup answering the move's destination rejected: %v", err)
	}
	if err := tr.checkLookup(1, 5, &decode(kLookup, lookup(1, 50)).look); err == nil {
		t.Error("moving lookup answering a node that never held a replica accepted")
	}
}

// TestTruthTracksMutator drives an in-process churn.Mutator through the
// operations the churn workload generates and asserts the bench's
// id→base map equals the engine's after every commit.
func TestTruthTracksMutator(t *testing.T) {
	w := findWorkload("churn-mixed")
	const n = 32
	tr, err := newTruth(w, n)
	if err != nil {
		t.Fatal(err)
	}
	mut, err := churn.NewMutator(churn.Config{Oracle: oracleConfig(n), Capacity: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	gen := newGenerator(w, tr, n, 1, 1)
	version := int64(1)
	for k := 0; k < 24; k++ {
		r := gen.nextMutation(k)
		op := churn.Op{Kind: churn.Join, Base: r.u}
		if r.kind == kLeave {
			op.Kind = churn.Leave
		}
		if _, err := mut.Apply(op); err != nil {
			t.Fatalf("op %d (%s %d): %v", k, r.kind, r.u, err)
		}
		version++
		ans := churnAns{Version: version, N: mut.N(), Bases: []int{r.u}}
		if err := tr.applyMutation(r.kind, r.u, &ans); err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		ids := tr.currentBases()
		if len(ids) != mut.N() {
			t.Fatalf("op %d: tracker has %d nodes, mutator %d", k, len(ids), mut.N())
		}
		for u, b := range ids {
			if int(b) != mut.ActiveBase(u) {
				t.Fatalf("op %d: id %d is base %d in the tracker, %d in the mutator", k, u, b, mut.ActiveBase(u))
			}
		}
	}
	if _, err := tr.idsAt(version + 1); err != errUnknownVersion {
		t.Errorf("an unseen version answered %v, want errUnknownVersion", err)
	}
	stale := churnAns{Version: version, N: mut.N(), Bases: []int{0}}
	if err := tr.applyMutation(kLeave, 0, &stale); err == nil {
		t.Error("a mutation response repeating a version was accepted")
	}
}

// TestSpreadMatchesPythonQuantiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the acceptance rule uses.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

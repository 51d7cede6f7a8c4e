package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"rings/internal/metric"
	wl "rings/internal/workload"
)

// Wire shapes of ringsrv's answers: only the fields the verifier checks.
type estimateAns struct {
	U       int     `json:"u"`
	V       int     `json:"v"`
	Lower   float64 `json:"lower"`
	Upper   float64 `json:"upper"`
	OK      bool    `json:"ok"`
	Version int64   `json:"version"`
	Cached  bool    `json:"cached"`
	Cross   bool    `json:"cross"`
}

type nearestAns struct {
	Target  int     `json:"target"`
	Member  int     `json:"member"`
	Dist    float64 `json:"dist"`
	Version int64   `json:"version"`
}

type routeAns struct {
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Path    []int   `json:"path"`
	Length  float64 `json:"length"`
	Dist    float64 `json:"dist"`
	Version int64   `json:"version"`
}

type lookupAns struct {
	Object string  `json:"object"`
	Node   int     `json:"node"`
	Dist   float64 `json:"dist"`
}

type publishAns struct {
	Object   string `json:"object"`
	Node     int    `json:"node"`
	Replicas int    `json:"replicas"`
}

type churnAns struct {
	Version int64 `json:"version"`
	N       int   `json:"n"`
	Bases   []int `json:"bases"`
}

// answer is one decoded response; the field matching the request's kind
// is set on a 200, code on anything else.
type answer struct {
	status int
	code   string
	est    estimateAns
	batch  []estimateAns
	near   nearestAns
	route  routeAns
	look   lookupAns
	pub    publishAns
	mut    churnAns
}

// errUnknownVersion defers a check: the answer carries an engine version
// whose mutation response has not reached the tracker yet (the query and
// the commit raced on two connections). The caller re-checks it once the
// phase is over.
var errUnknownVersion = errors.New("answer from a version the tracker has not seen yet")

// objState is the bench's publish log for one object: the replicas it
// currently has and, for a moving object, every node that held or was
// about to hold a replica during its latest move (the set before the
// move plus the move's destination, noted before the move is sent).
type objState struct {
	cur, recent []int
	moving      bool
}

// truth is the bench's own copy of the ground truth: the metric space
// (generated from the dataset seed, never asked of the server), the id
// renaming under churn, and the object publish log.
type truth struct {
	space  metric.Space
	shards int // 1 = single engine

	mu sync.Mutex
	// bases[v][id] is the base node behind snapshot id at engine version
	// v (churn only; nil means ids are base ids at every version).
	bases  map[int64][]int32
	latest int64
	objs   []objState
}

// newTruth generates the base space of workload w at node count n — 2n
// points under churn, whose first n are the initially active ones.
func newTruth(w *workload, n int) (*truth, error) {
	size := n
	if w.churn {
		size = 2 * n
	}
	space, _, err := wl.MetricSpec{Name: "latency", N: size, Seed: datasetSeed}.Space()
	if err != nil {
		return nil, err
	}
	t := &truth{space: space, shards: 1}
	if w.fleet {
		t.shards = fleetShards
	}
	if w.churn {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		// A fresh engine installs its first snapshot as version 1.
		t.bases = map[int64][]int32{1: ids}
		t.latest = 1
	}
	return t, nil
}

// currentBases returns the id→base map of the latest version (churn).
func (t *truth) currentBases() []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bases[t.latest]
}

// applyMutation advances the id→base map from a committed join or leave,
// mirroring the engine's renaming: a join takes the next id, a leave
// moves the last id into the hole. The response must be the successor of
// the latest version and agree on the node count.
func (t *truth) applyMutation(k kind, base int, ans *churnAns) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ans.Version != t.latest+1 {
		return fmt.Errorf("%s committed version %d, tracker expected %d", k, ans.Version, t.latest+1)
	}
	if len(ans.Bases) != 1 || ans.Bases[0] != base {
		return fmt.Errorf("%s of base %d answered bases %v", k, base, ans.Bases)
	}
	next, err := renameIDs(t.bases[t.latest], k, base)
	if err != nil {
		return err
	}
	if ans.N != len(next) {
		return fmt.Errorf("%s answered n=%d, tracker has %d", k, ans.N, len(next))
	}
	t.bases[ans.Version] = next
	t.latest = ans.Version
	return nil
}

// renameIDs applies one membership change to an id→base map.
func renameIDs(cur []int32, k kind, base int) ([]int32, error) {
	at := -1
	for i, b := range cur {
		if int(b) == base {
			at = i
			break
		}
	}
	next := append([]int32(nil), cur...)
	switch {
	case k == kJoin && at < 0:
		return append(next, int32(base)), nil
	case k == kLeave && at >= 0:
		last := len(next) - 1
		next[at] = next[last]
		return next[:last], nil
	}
	return nil, fmt.Errorf("%s of base %d does not fit the tracked membership", k, base)
}

// idsAt returns the id→base map of an answer's version: nil (identity)
// without churn, errUnknownVersion when the commit is still in flight.
func (t *truth) idsAt(version int64) ([]int32, error) {
	if t.bases == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids, ok := t.bases[version]
	if !ok {
		return nil, errUnknownVersion
	}
	return ids, nil
}

// dist is the true distance between snapshot ids u and v under ids.
func (t *truth) dist(ids []int32, u, v int) (float64, error) {
	n := t.space.N()
	if ids != nil {
		n = len(ids)
	}
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, fmt.Errorf("ids (%d, %d) outside [0, %d)", u, v, n)
	}
	if ids != nil {
		u, v = int(ids[u]), int(ids[v])
	}
	return t.space.Dist(u, v), nil
}

// tol is the float slack of an equality or sandwich check: the server
// computes its bounds with the same float64 arithmetic, so anything
// beyond rounding is a real violation.
func tol(a, b float64) float64 { return 1e-9 * math.Max(1, math.Max(a, b)) }

// checkEstimate verifies one estimate against the true distance and
// returns the realized stretch upper/d (0 for a self pair).
func (t *truth) checkEstimate(u, v int, a *estimateAns) (float64, error) {
	if a.U != u || a.V != v {
		return 0, fmt.Errorf("estimate(%d,%d) answered for (%d,%d)", u, v, a.U, a.V)
	}
	ids, err := t.idsAt(a.Version)
	if err != nil {
		return 0, err
	}
	d, err := t.dist(ids, u, v)
	if err != nil {
		return 0, fmt.Errorf("estimate at version %d: %v", a.Version, err)
	}
	if u == v {
		if a.Lower != 0 || a.Upper != 0 {
			return 0, fmt.Errorf("self pair %d answered [%g, %g], want exactly 0", u, a.Lower, a.Upper)
		}
		return 0, nil
	}
	if !a.OK {
		return 0, fmt.Errorf("estimate(%d,%d) not ok", u, v)
	}
	if slack := tol(d, a.Upper); a.Lower > d+slack || d > a.Upper+slack {
		return 0, fmt.Errorf("estimate(%d,%d) = [%g, %g] does not hold d = %g", u, v, a.Lower, a.Upper, d)
	}
	return a.Upper / d, nil
}

// checkBatch verifies a /batch answer: one result per pair in order, one
// version across the batch, and the sandwich on the 1-in-16 sample of
// pairs the request's salt selects. It returns the sampled stretches.
func (t *truth) checkBatch(req *request, results []estimateAns, stretch []float64) ([]float64, error) {
	if len(results) != len(req.pairs) {
		return stretch, fmt.Errorf("batch of %d pairs answered %d results", len(req.pairs), len(results))
	}
	for i := range results {
		if results[i].Version != results[0].Version {
			return stretch, fmt.Errorf("batch mixes versions %d and %d", results[0].Version, results[i].Version)
		}
		p := req.pairs[i]
		if results[i].U != p.U || results[i].V != p.V {
			return stretch, fmt.Errorf("batch result %d is for (%d,%d), want (%d,%d)", i, results[i].U, results[i].V, p.U, p.V)
		}
	}
	for i := req.salt % batchSampleEvery; i < len(results); i += batchSampleEvery {
		s, err := t.checkEstimate(req.pairs[i].U, req.pairs[i].V, &results[i])
		if err != nil {
			return stretch, err
		}
		if s > 0 {
			stretch = append(stretch, s)
		}
	}
	return stretch, nil
}

const batchSampleEvery = 16

// isMember reports whether id is an overlay member reachable from
// target: every stride-th node of the snapshot, or of target's shard
// (round-robin partition: shard = id mod K, local id = id div K).
func (t *truth) isMember(target, member int) bool {
	if member%t.shards != target%t.shards {
		return false
	}
	return (member/t.shards)%memberStride == 0
}

// checkNearest verifies a /nearest answer: an overlay member, with its
// exact distance. How far it is from the closest member is the layer
// metric oracle.nearest.stretch_mean — the climb is approximate by design.
func (t *truth) checkNearest(target int, a *nearestAns) error {
	if a.Target != target {
		return fmt.Errorf("nearest(%d) answered for %d", target, a.Target)
	}
	ids, err := t.idsAt(a.Version)
	if err != nil {
		return err
	}
	if !t.isMember(target, a.Member) {
		return fmt.Errorf("nearest(%d) = %d is not an overlay member", target, a.Member)
	}
	d, err := t.dist(ids, target, a.Member)
	if err != nil {
		return fmt.Errorf("nearest at version %d: %v", a.Version, err)
	}
	if math.Abs(a.Dist-d) > tol(d, a.Dist) {
		return fmt.Errorf("nearest(%d) = %d at dist %g, true distance %g", target, a.Member, a.Dist, d)
	}
	return nil
}

// checkRoute verifies a /route answer: a path from src to dst whose
// length is the sum of its hops and no shorter than the true distance.
func (t *truth) checkRoute(src, dst int, a *routeAns) error {
	if a.Src != src || a.Dst != dst {
		return fmt.Errorf("route(%d,%d) answered for (%d,%d)", src, dst, a.Src, a.Dst)
	}
	ids, err := t.idsAt(a.Version)
	if err != nil {
		return err
	}
	if len(a.Path) == 0 || a.Path[0] != src || a.Path[len(a.Path)-1] != dst {
		return fmt.Errorf("route(%d,%d) path %v does not join its endpoints", src, dst, a.Path)
	}
	var length float64
	for i := 1; i < len(a.Path); i++ {
		hop, err := t.dist(ids, a.Path[i-1], a.Path[i])
		if err != nil {
			return fmt.Errorf("route(%d,%d): %v", src, dst, err)
		}
		length += hop
	}
	d, err := t.dist(ids, src, dst)
	if err != nil {
		return err
	}
	if math.Abs(a.Length-length) > 1e-6*math.Max(1, length) {
		return fmt.Errorf("route(%d,%d) length %g, its hops sum to %g", src, dst, a.Length, length)
	}
	if src != dst && math.Abs(a.Dist-d) > tol(d, a.Dist) {
		return fmt.Errorf("route(%d,%d) dist %g, true distance %g", src, dst, a.Dist, d)
	}
	if a.Length < d-tol(d, a.Length) {
		return fmt.Errorf("route(%d,%d) length %g shorter than the distance %g", src, dst, a.Length, d)
	}
	return nil
}

// checkLookup verifies a /lookup answer against the publish log. A
// static object must resolve to the brute-force nearest replica (ties to
// the lowest id); a moving one to a replica it has now or had or was
// gaining during its latest move, since the lookup may have raced it. The distance must
// be the true distance to the chosen node either way.
func (t *truth) checkLookup(obj, from int, a *lookupAns) error {
	if a.Object != objectName(obj) {
		return fmt.Errorf("lookup(%s) answered for %q", objectName(obj), a.Object)
	}
	t.mu.Lock()
	o := t.objs[obj]
	cur := slices.Clone(o.cur)
	recent := slices.Clone(o.recent)
	t.mu.Unlock()

	d, err := t.dist(nil, from, a.Node)
	if err != nil {
		return fmt.Errorf("lookup(%s): %v", a.Object, err)
	}
	if math.Abs(a.Dist-d) > tol(d, a.Dist) {
		return fmt.Errorf("lookup(%s) from %d = node %d at dist %g, true distance %g", a.Object, from, a.Node, a.Dist, d)
	}
	if o.moving {
		if !slices.Contains(cur, a.Node) && !slices.Contains(recent, a.Node) {
			return fmt.Errorf("lookup(%s) = node %d, not a current or just-moved replica (%v, latest move: %v)", a.Object, a.Node, cur, recent)
		}
		return nil
	}
	best, bestD := -1, 0.0
	for _, r := range cur {
		if dr := t.space.Dist(from, r); best < 0 || dr < bestD || (dr == bestD && r < best) {
			best, bestD = r, dr
		}
	}
	if a.Node != best {
		return fmt.Errorf("lookup(%s) from %d = node %d (dist %g), nearest replica is %d (dist %g)", a.Object, from, a.Node, a.Dist, best, bestD)
	}
	return nil
}

// beginMove notes a move of obj before its unpublish is sent: until the
// next move, a lookup may resolve to any replica of the old set or to
// the destination. Callers hold t.mu.
func (t *truth) beginMove(obj, to int) {
	o := &t.objs[obj]
	o.recent = append(slices.Clone(o.cur), to)
}

// applyPublish records an acknowledged publish or unpublish.
func (t *truth) applyPublish(k kind, obj, node int, a *publishAns) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := &t.objs[obj]
	if k == kUnpublish {
		o.cur = slices.DeleteFunc(slices.Clone(o.cur), func(r int) bool { return r == node })
	} else {
		o.cur = append(o.cur, node)
	}
	if a.Replicas != len(o.cur) {
		return fmt.Errorf("%s(%s, %d) left %d replicas, log has %d", k, objectName(obj), node, a.Replicas, len(o.cur))
	}
	return nil
}

func objectName(i int) string { return fmt.Sprintf("obj-%03d", i) }

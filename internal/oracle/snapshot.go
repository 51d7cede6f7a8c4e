package oracle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/bitio"
	"rings/internal/distlabel"
	"rings/internal/metric"
	"rings/internal/nnsearch"
	"rings/internal/routing"
)

// ErrNoOverlay is returned by Nearest when the snapshot was built with
// SkipOverlay.
var ErrNoOverlay = errors.New("oracle: snapshot has no nearest-neighbor overlay")

// ErrNoRouter is returned by Route when the snapshot is not Routable: a
// flat-only warm start, whose ball index is not built yet.
var ErrNoRouter = errors.New("oracle: snapshot has no routing scheme")

// ErrNodeRange marks a query naming a node id outside [0, N()) — under
// membership churn a client's id range can lag a shrink swap, and the
// serving layer distinguishes that expected race from other bad input
// by this sentinel (HTTP surfaces map it to a machine-readable code).
var ErrNodeRange = errors.New("node id out of range")

// Snapshot is one immutable serving unit: a workload plus every artifact
// built over it. All methods are pure reads — a Snapshot may be shared
// by any number of goroutines, which is what makes the Engine's
// lock-free reads sound. Fields are exported for inspection (and for
// tests comparing engine answers against direct construction calls);
// they must not be mutated after BuildSnapshot returns. A Snapshot holds
// a sync.Once and must not be copied.
type Snapshot struct {
	// Config is the build recipe (defaults applied).
	Config Config
	// Name is the canonical workload instance name.
	Name string
	// Version is assigned by Engine.Swap when the snapshot is installed;
	// 0 means never installed.
	Version int64
	// Idx is the ball index over the workload's space.
	Idx metric.BallIndex
	// Scheme and Labels are the Theorem 3.4 labeling in pointer form,
	// carried by build-side snapshots only (both nil on every restored
	// snapshot — see MaterializeLabels). No query reads them: Estimate
	// walks Flat. Scheme is the full build object, nil on churn deltas;
	// when present, Labels[u] == Scheme.Label(u).
	Scheme *distlabel.Scheme
	Labels []*distlabel.Label
	// Overlay is the Meridian-style ring overlay (nil under SkipOverlay).
	Overlay *nnsearch.Overlay
	// BuildElapsed is how long BuildSnapshot took.
	BuildElapsed time.Duration
	// Build is the per-phase build breakdown (what /snapshot and /stats
	// report, and what ringperf's oracle.build.* rows track).
	Build BuildStats
	// Perm, when non-nil, records that this snapshot serves a churned
	// subset of a capacity-sized base workload: node u of the snapshot is
	// base node Perm[u] of the workload generated with N = Capacity.
	// Spec-built snapshots leave it nil. Persistence uses it to restore
	// the exact surviving node set on warm start.
	Perm []int32
	// Capacity is the base-workload size behind Perm (0 when Perm is nil).
	Capacity int

	// LabelMeta carries the scheme-wide label constants. It exists so
	// snapshots whose labels did not come from a live *distlabel.Scheme
	// — churn deltas, restores — can still derive a Wire codec.
	LabelMeta LabelMeta

	// Flat is the arena-packed serving form of the labels. Every
	// assembled snapshot carries it; every estimate reads it instead of
	// the pointer labels, and the v2 persisted format is exactly its
	// bytes. A snapshot opened via
	// OpenSnapshotFile carries ONLY Flat (plus config/meta): estimates
	// work immediately, Nearest/Route/Idx-dependent calls need Hydrate,
	// whose result shares this same arena.
	Flat *FlatSnap

	// n caches the node count so flat-only snapshots (Idx == nil) can
	// bounds-check queries.
	n int

	entry    int // overlay entry member (smallest member id)
	nearHops int

	// router memoizes the Theorem 2.1 metric routing scheme — a pure
	// function of (Idx, Config.Delta), built at most once (see Router).
	router struct {
		once   sync.Once
		scheme routing.Scheme
		err    error
		built  atomic.Bool
	}
}

// Close releases the snapshot's hold on an mmap-backed flat arena (a
// no-op for heap-backed snapshots, which the GC owns). Call it only
// after the snapshot has been swapped out of every engine: in-flight
// readers that pinned the arena keep it mapped until they drain, and
// new readers reload the engine state instead of touching it.
func (s *Snapshot) Close() {
	if s != nil && s.Flat != nil {
		s.Flat.release()
	}
}

// LabelMeta are the scheme-wide constants a distlabel.Wire needs.
type LabelMeta struct {
	IMax        int `json:"imax"`
	MaxT        int `json:"max_t"`
	Level0Count int `json:"level0_count"`
}

// LabelWire derives the serialization context of the snapshot's labels
// — the same context Scheme.Wire would return for the scheme that
// (conceptually) produced them — from LabelMeta and the index alone,
// resident pointer labels or not. It errors before hydration.
func (s *Snapshot) LabelWire() (distlabel.Wire, error) {
	if s.Idx == nil {
		return distlabel.Wire{}, fmt.Errorf("oracle: snapshot has no labels to serialize")
	}
	codec, err := bitio.NewDistCodec(s.Idx.MinDistance(), s.Idx.Diameter(), s.Config.Delta/6)
	if err != nil {
		return distlabel.Wire{}, err
	}
	return distlabel.Wire{
		IMax:        s.LabelMeta.IMax,
		MaxT:        s.LabelMeta.MaxT,
		Level0Count: s.LabelMeta.Level0Count,
		Codec:       codec,
	}, nil
}

// MaterializeLabels returns the Theorem 3.4 labels in pointer form: the
// resident ones on a build-side snapshot, else a copy rebuilt from the
// label arena. It feeds byte-identity tests and wire tooling; serving
// code reads the arena and never calls it.
func (s *Snapshot) MaterializeLabels() ([]*distlabel.Label, error) {
	if s.Labels != nil {
		return s.Labels, nil
	}
	if s.Flat == nil {
		return nil, fmt.Errorf("oracle: snapshot has no labels to materialize")
	}
	if !s.Flat.pin() {
		return nil, errArenaClosed
	}
	defer s.Flat.unpin()
	return s.Flat.materializeLabels(), nil
}

// setOverlay installs the overlay plus its derived query parameters.
func (s *Snapshot) setOverlay(overlay *nnsearch.Overlay) {
	s.Overlay = overlay
	s.entry = overlay.Members()[0]
	// The climb strictly decreases the distance over a finite member
	// set, so |members|+1 hops always suffice.
	s.nearHops = len(overlay.Members()) + 1
}

// Router build causes, the label of rings_oracle_router_builds_total.
const (
	routerCauseCommit  = "commit"  // a commit inherited its predecessor's demand
	routerCauseRequest = "request" // the first Route on the snapshot built it
)

// Routable reports whether Route can answer: the snapshot has its ball
// index (it is not a flat-only warm start awaiting Hydrate). Whether the
// router is built yet is Routed.
func (s *Snapshot) Routable() bool { return s.Idx != nil }

// Routed reports whether the snapshot's router exists — a commit
// inherited it or a Route asked for it. It is the demand a successor
// commit inherits.
func (s *Snapshot) Routed() bool { return s.router.built.Load() }

// Router returns the Theorem 2.1 metric routing scheme over the
// snapshot's index, building it on first use (concurrent callers share
// one build). It is a pure function of (Idx, Config.Delta), so who builds
// it only decides who waits. One rule decides (DESIGN.md §8): the first
// Route on a snapshot builds it — no boot, cold or warm, does, so a
// server nobody routes on never holds one — and a commit inherits that
// demand (InheritRouter). ErrNoRouter when not Routable.
func (s *Snapshot) Router() (routing.Scheme, error) {
	if !s.Routable() {
		return nil, ErrNoRouter
	}
	return s.buildRouter(routerCauseRequest)
}

// InheritRouter is the commit half of the rule on Router: on a snapshot
// about to replace prev, it builds the router now iff prev was Routed —
// a deployment that routes keeps finding the router ready after every
// swap, one that does not never pays for it.
func (s *Snapshot) InheritRouter(prev *Snapshot) error {
	if prev == nil || !prev.Routed() || !s.Routable() {
		return nil
	}
	_, err := s.buildRouter(routerCauseCommit)
	return err
}

// buildRouter is the memoized build; the first caller's cause counts.
func (s *Snapshot) buildRouter(cause string) (routing.Scheme, error) {
	s.router.once.Do(func() {
		t0 := time.Now()
		router, err := routing.NewThm21Metric(s.Idx, s.Config.Delta)
		took := time.Since(t0)
		mRouterBuilds.With(cause).Inc()
		mRouterBuildUs.Observe(float64(took) / float64(time.Microsecond))
		if cause == routerCauseCommit {
			// Not published yet: the build is one more serial phase. A
			// served snapshot's BuildStats may be in a /stats reader's
			// hands, so a request's build shows in the histogram alone.
			s.Build.RouterSec = took.Seconds()
			s.extendBuild(took)
		}
		if err != nil {
			s.router.err = err
			return
		}
		s.router.scheme = router
		s.router.built.Store(true)
	})
	return s.router.scheme, s.router.err
}

// extendBuild appends a serial phase to the build total.
func (s *Snapshot) extendBuild(phase time.Duration) {
	s.BuildElapsed += phase
	s.Build.TotalSec = s.BuildElapsed.Seconds()
}

// Artifacts is the prebuilt-parts input of AssembleSnapshot.
type Artifacts struct {
	Idx     metric.BallIndex
	Scheme  *distlabel.Scheme
	Labels  []*distlabel.Label
	Overlay *nnsearch.Overlay
	// LabelMeta must be set when Labels is (see Snapshot.LabelMeta).
	LabelMeta LabelMeta
	// Perm/Capacity identify a churned node subset (see Snapshot.Perm).
	Perm     []int32
	Capacity int
}

// AssembleSnapshot wraps externally built artifacts into a Snapshot,
// deriving the same query parameters (overlay entry, hop budgets)
// BuildSnapshot would, and packing the flat serving arenas. It is the
// commit path of the churn engine — which repairs artifacts
// incrementally and must still publish an ordinary, immutable Snapshot
// (restores go through the arena path in persist.go instead); the
// router is the caller's InheritRouter away. It fails only when the
// labels cannot be packed.
func AssembleSnapshot(cfg Config, name string, a Artifacts, elapsed time.Duration, build BuildStats) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	snap := &Snapshot{
		Config:       cfg,
		Name:         name,
		Idx:          a.Idx,
		Scheme:       a.Scheme,
		Labels:       a.Labels,
		LabelMeta:    a.LabelMeta,
		Perm:         a.Perm,
		Capacity:     a.Capacity,
		BuildElapsed: elapsed,
		Build:        build,
	}
	if a.Idx != nil {
		snap.n = a.Idx.N()
	}
	if a.Overlay != nil {
		snap.setOverlay(a.Overlay)
	}
	// Packing at every assembly (including churn delta commits) keeps the
	// invariant the Engine serves by: a snapshot always has its flat form
	// (and with it its v2 persisted form). The pack is a build phase like
	// any other — a quarter of a churn commit at n = 512 — so it is timed
	// and the total (elapsed covers everything before it) extended by it.
	t0 := time.Now()
	var err error
	snap.Flat, err = newFlatForSnapshot(snap)
	pack := time.Since(t0)
	snap.Build.PackSec = pack.Seconds()
	snap.extendBuild(pack)
	return snap, err
}

// BuildStats is the per-phase wall-clock breakdown of one BuildSnapshot
// call, in seconds (JSON-friendly). Phases that were skipped or not
// applicable are zero. The label sub-phases sum to at most
// LabelsTotalSec (which wraps the whole scheme build); TotalSec is
// wall-clock of the whole build, which is less than the sum of phases
// when independent artifacts built concurrently.
type BuildStats struct {
	N        int    `json:"n"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Profile  string `json:"profile"`
	Workers  int    `json:"workers"`

	IndexSec    float64 `json:"index_sec"`
	NetsSec     float64 `json:"nets_sec"`
	RadiiSec    float64 `json:"radii_sec"`
	PackingsSec float64 `json:"packings_sec"`
	RingsSec    float64 `json:"rings_sec"`

	// TriangulationSec always reads 0: no build derives the Theorem 3.2
	// triangulation any more. It stays only because bench/ reads it
	// (ROADMAP item 1a).
	TriangulationSec float64 `json:"triangulation_sec"`
	VerifySec        float64 `json:"verify_sec"`

	ZSetsSec       float64 `json:"zsets_sec"`
	TSetsSec       float64 `json:"tsets_sec"`
	HostEnumsSec   float64 `json:"host_enums_sec"`
	LabelFillSec   float64 `json:"label_fill_sec"`
	LabelsTotalSec float64 `json:"labels_total_sec"`

	OverlaySec float64 `json:"overlay_sec"`
	// RouterSec is the router build of a commit that inherited routing
	// demand, zero otherwise: a boot leaves the router to the first Route
	// (see Snapshot.Router). PackSec is the flat-arena pack.
	RouterSec float64 `json:"router_sec"`
	PackSec   float64 `json:"pack_sec"`
	TotalSec  float64 `json:"total_sec"`
}

// N reports the node count (flat-only snapshots know it too).
func (s *Snapshot) N() int { return s.n }

// EstimateResult is one distance estimate. Lower and Upper sandwich the
// true distance; Upper is the (1+δ)-approximate estimate.
type EstimateResult struct {
	U       int     `json:"u"`
	V       int     `json:"v"`
	Lower   float64 `json:"lower"`
	Upper   float64 `json:"upper"`
	OK      bool    `json:"ok"`
	Version int64   `json:"version"`
	// Cached reports whether the Engine answered from its cache (always
	// false on direct Snapshot calls).
	Cached bool `json:"cached"`
}

// NearestResult is one nearest-member query.
type NearestResult struct {
	Target  int     `json:"target"`
	Member  int     `json:"member"`
	Dist    float64 `json:"dist"`
	Hops    int     `json:"hops"`
	Path    []int   `json:"path"`
	Version int64   `json:"version"`
}

// RouteResult is one simulated packet route.
type RouteResult struct {
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Path    []int   `json:"path"`
	Length  float64 `json:"length"`
	Dist    float64 `json:"dist"`
	Stretch float64 `json:"stretch"`
	Hops    int     `json:"hops"`
	Version int64   `json:"version"`
}

func (s *Snapshot) checkNode(kind string, u int) error {
	if u < 0 || u >= s.N() {
		return fmt.Errorf("oracle: %s node %d out of range [0, %d): %w", kind, u, s.N(), ErrNodeRange)
	}
	return nil
}

// Estimate answers one distance estimate directly from the snapshot's
// flat arena, bypassing any cache: the walk the Engine serves, on every
// snapshot alike (built, assembled, opened or restored), bit-identical
// to distlabel.Estimate on the labels it was packed from.
func (s *Snapshot) Estimate(u, v int) (EstimateResult, error) {
	if err := s.checkNode("estimate", u); err != nil {
		return EstimateResult{}, err
	}
	if err := s.checkNode("estimate", v); err != nil {
		return EstimateResult{}, err
	}
	if s.Flat == nil {
		return EstimateResult{}, fmt.Errorf("oracle: snapshot has no estimator")
	}
	if !s.Flat.pin() {
		return EstimateResult{}, errArenaClosed
	}
	res := EstimateResult{U: u, V: v, Version: s.Version}
	res.Lower, res.Upper, res.OK = s.Flat.estimatePair(u, v)
	s.Flat.unpin()
	return res, nil
}

// Nearest runs the Meridian climb from the snapshot's fixed entry member
// toward target; the answer is exactly
// Overlay.NearestMember(entry, target, hops) for the snapshot's entry
// and hop budget.
func (s *Snapshot) Nearest(target int) (NearestResult, error) {
	if s.Overlay == nil {
		return NearestResult{}, ErrNoOverlay
	}
	if err := s.checkNode("nearest", target); err != nil {
		return NearestResult{}, err
	}
	r, err := s.Overlay.NearestMember(s.entry, target, s.nearHops)
	if err != nil {
		return NearestResult{}, err
	}
	return NearestResult{
		Target:  target,
		Member:  r.Member,
		Dist:    r.Dist,
		Hops:    r.Hops,
		Path:    r.Path,
		Version: s.Version,
	}, nil
}

// Route simulates one packet under the snapshot's routing scheme and
// reports the realized stretch.
func (s *Snapshot) Route(src, dst int) (RouteResult, error) {
	if !s.Routable() {
		return RouteResult{}, ErrNoRouter
	}
	if err := s.checkNode("route", src); err != nil {
		return RouteResult{}, err
	}
	if err := s.checkNode("route", dst); err != nil {
		return RouteResult{}, err
	}
	router, err := s.buildRouter(routerCauseRequest)
	if err != nil {
		return RouteResult{}, err
	}
	r, err := routing.Route(router, src, dst, 80*s.n)
	if err != nil {
		return RouteResult{}, err
	}
	res := RouteResult{
		Src:     src,
		Dst:     dst,
		Path:    r.Path,
		Length:  r.Length,
		Hops:    r.Hops,
		Stretch: 1,
		Version: s.Version,
	}
	if d := s.Idx.Dist(src, dst); d > 0 {
		res.Dist = d
		res.Stretch = r.Length / d
	}
	return res, nil
}

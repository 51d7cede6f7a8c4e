// Package oracle is the distance-oracle serving engine: the layer that
// turns the paper's one-shot constructions into a queryable service.
//
// The paper closes (Section 6) by noting that rings of neighbors are the
// framework behind Meridian, a deployed P2P system for nearest-neighbor
// and distance queries. Everything below this package can only *build*
// the structures — distance labels (Theorem 3.4), triangulation beacon
// sets (Theorem 3.2), Meridian-style ring overlays (Section 6), compact
// routing tables (Theorem 2.1 on metrics) — in one CLI run. This package
// *serves* the labels, the overlay and the router:
//
//   - A Snapshot bundles every expensive-to-build artifact over one
//     workload into a single immutable value. All query methods on a
//     Snapshot are pure reads, so any number of goroutines can share it.
//   - An Engine holds the current Snapshot behind an atomic pointer:
//     reads are lock-free, and Swap installs a freshly built Snapshot
//     with zero downtime — queries in flight keep answering from the old
//     one, later queries see the new one (each answer reports the
//     snapshot version it came from).
//   - A sharded query-result cache (hit/miss/eviction counters) fronts
//     the estimate path; the cache is tied to the snapshot it was filled
//     from and is replaced wholesale on Swap, so a stale entry can never
//     survive a rebuild.
//   - Every event is counted once, in the engine's telemetry registry
//     (Metrics); Stats is a view of it: counters and histogram-derived
//     latency summaries for every endpoint plus cache and swap counters.
//
// cmd/ringsrv exposes the engine over HTTP/JSON and cmd/ringload drives
// it under closed-loop load. The Snapshot/Swap contract is what lets
// producers other than BuildSnapshot feed the engine: internal/churn
// commits incrementally repaired delta snapshots through the same Swap
// (see AssembleSnapshot), and ReadSnapshot warm-starts one from disk;
// future scaling work (sharding, replication) plugs in the same way.
//
// One estimator is served: Theorem 3.4 labels, packed into the flat
// arena every Snapshot carries (answers are byte-identical to
// distlabel.Estimate on the same labels). Since the parallel
// allocation-lean build of DESIGN.md §7 they are buildable at serving
// scale (~5 s at n = 2048 single-core under the tuned profile,
// EXPERIMENTS.md B2), and every snapshot carries its per-phase
// BuildStats so the cost stays tracked. The Theorem 3.2 triangulation
// is no longer a served scheme (ErrSchemeRetired); its construction
// remains what the labels are built from.
package oracle

import (
	"errors"
	"fmt"
	"time"

	"rings/internal/distlabel"
	"rings/internal/metric"
	"rings/internal/nnsearch"
	"rings/internal/par"
	"rings/internal/triangulation"
	"rings/internal/workload"
)

// SchemeLabels is the one value Config.Scheme accepts besides "" (its
// default): estimates come from Theorem 3.4 distance labels. The field
// and the constant stay only because bench/ sets them (ROADMAP item 1a).
const SchemeLabels = "labels"

// ErrSchemeRetired refuses the Theorem 3.2 "beacons" scheme by name,
// whether a Config asks for it or a snapshot header says it. No reader
// is kept for beacon snapshots: the file is a cache of a deterministic
// build, so the remedy is to rebuild it under labels.
var ErrSchemeRetired = errors.New(`oracle: the "beacons" scheme is retired; labels are the one served estimator (delete a beacons snapshot file to rebuild)`)

// CheckScheme accepts SchemeLabels (what Config.WithDefaults makes of
// ""), refuses the retired "beacons" with ErrSchemeRetired, and names
// any other value as unknown.
func CheckScheme(scheme string) error {
	switch scheme {
	case SchemeLabels:
		return nil
	case "beacons":
		return ErrSchemeRetired
	}
	return fmt.Errorf("oracle: unknown scheme %q (want labels)", scheme)
}

// Construction profiles for Config.Profile.
const (
	// ProfilePaper uses the paper's worst-case ring constants.
	ProfilePaper = "paper"
	// ProfileTuned uses the lab-scale ring profile
	// (triangulation.TunedParams at Y reach tunedYReach): same δ',
	// smaller rings, guarantee re-checked per instance when
	// Config.Verify is set.
	ProfileTuned = "tuned"
)

// tunedYReach is the tuned profile's Y-ring reach, in units of r_ui.
const tunedYReach = 2

// Config describes how to build one Snapshot: the workload, the ring
// constants, and which artifacts to include. The zero value is
// not useful; fill at least Workload and its size knob. Defaults applied
// by BuildSnapshot: Delta 0.5, Scheme "labels", Profile "tuned",
// MemberStride 4. The fields tagged recipe decide what a snapshot serves
// (see CheckRecipe); a tag names the knob's ringsrv flag.
type Config struct {
	// Workload selects the metric family (grid|cube|expline|latency)
	// with the same knobs as workload.MetricSpec.
	Workload  string  `recipe:"workload"`
	N         int     `recipe:"n"`
	Side      int     `recipe:"side"`
	LogAspect float64 `recipe:"logaspect"`
	Seed      int64   `recipe:"seed"`

	// Delta is the target approximation (0, 1] for the labels and the
	// router.
	Delta float64 `recipe:"delta"`
	// Scheme names the estimator; only SchemeLabels is accepted (see
	// CheckScheme).
	Scheme string
	// Profile picks the ring constants: ProfilePaper or ProfileTuned.
	Profile string `recipe:"profile"`
	// Verify checks, after the build, every pair's served answer against
	// the exact distance: lower ≤ d ≤ upper and upper ≤ (1+δ)·d (O(n²)
	// arena walks; recommended with ProfileTuned at small n, prohibitive
	// at large n).
	Verify bool
	// RefCount, when non-zero, pins the construction's mass
	// normalization and level count to a fixed reference node count (see
	// triangulation.Params.RefN). The churn engine sets it to the
	// universe capacity so the substrate stays churn-stable; static
	// serving leaves it 0 (live count).
	RefCount int

	// Workers bounds index build parallelism (0 = GOMAXPROCS).
	Workers int

	// MemberStride makes every stride-th node an overlay member (1 =
	// every node). The overlay serves /nearest.
	MemberStride int `recipe:"members"`
	// SkipOverlay omits the Meridian overlay (Nearest then errors).
	SkipOverlay bool `recipe:"no-overlay"`
}

// WithDefaults returns the config with every unset knob resolved to its
// default — the exact recipe BuildSnapshot runs under, exposed so the
// churn engine can mirror it.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Delta == 0 {
		c.Delta = 0.5
	}
	if c.Scheme == "" {
		c.Scheme = SchemeLabels
	}
	if c.Profile == "" {
		c.Profile = ProfileTuned
	}
	if c.MemberStride == 0 {
		c.MemberStride = 4
	}
	return c
}

// Spec translates the workload knobs into the shared catalogue spec.
func (c Config) Spec() workload.MetricSpec {
	return workload.MetricSpec{
		Name:      c.Workload,
		N:         c.N,
		Side:      c.Side,
		LogAspect: c.LogAspect,
		Seed:      c.Seed,
	}
}

// TriangulationParams resolves the ring geometry of the config's
// profile (defaults applied). The churn engine uses it to rebuild the
// construction substrate with exactly the recipe BuildSnapshot would.
func (c Config) TriangulationParams() (triangulation.Params, error) {
	c = c.withDefaults()
	if c.Delta <= 0 || c.Delta > 1 {
		return triangulation.Params{}, fmt.Errorf("oracle: delta = %v, want (0, 1]", c.Delta)
	}
	var params triangulation.Params
	switch c.Profile {
	case ProfilePaper:
		params = triangulation.DefaultParams(c.Delta / 6)
	case ProfileTuned:
		params = triangulation.TunedParams(c.Delta/6, tunedYReach)
	default:
		return triangulation.Params{}, fmt.Errorf("oracle: unknown profile %q (want paper|tuned)", c.Profile)
	}
	params.Workers = c.Workers
	params.RefN = c.RefCount
	return params, nil
}

// OverlayMembers is the member subset of the Meridian overlay for an
// n-node snapshot: every stride-th node (stride clamped to >= 1). One
// definition shared by BuildSnapshot and the churn repair keeps "the
// overlay over the surviving nodes" meaning the same thing on both
// paths.
func OverlayMembers(n, stride int) []int {
	if stride < 1 {
		stride = 1
	}
	var members []int
	for m := 0; m < n; m += stride {
		members = append(members, m)
	}
	return members
}

// BuildSnapshot constructs every artifact the config asks for. It is the
// expensive call the Engine's Swap exists to hide: run it on a fresh
// config while the previous snapshot keeps serving, then Swap the result
// in.
func BuildSnapshot(cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	space, name, err := cfg.Spec().Space()
	if err != nil {
		return nil, err
	}
	return BuildSnapshotOver(cfg, space, name)
}

// BuildServed is BuildSnapshot in the form an engine serves: the build's
// arena restored by HydrateOver over the build's own space, so a cold
// boot and a rebuild serve what a warm boot serves — the arena, a
// LazyIndex and the overlay — and the build-side snapshot (eager rows,
// pointer labels, the construction behind them) is garbage on return.
// The build makes no overlay of its own: the restore builds the one the
// result serves. The result keeps the build's BuildStats with the
// restore's overlay time, the restore added to the total as one more
// serial phase.
func BuildServed(cfg Config) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	space, name, err := cfg.Spec().Space()
	if err != nil {
		return nil, err
	}
	built, err := buildSnapshotOver(cfg, space, name, false)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	served, err := built.HydrateOver(space, name)
	if err != nil {
		return nil, err
	}
	overlaySec := served.Build.OverlaySec
	served.BuildElapsed, served.Build = built.BuildElapsed, built.Build
	served.Build.OverlaySec = overlaySec
	served.extendBuild(time.Since(t0))
	return served, nil
}

// BuildSnapshotOver is BuildSnapshot over an explicit metric space
// instead of the config's workload spec: the from-scratch reference the
// churn engine's delta snapshots are tested against (both constructions
// then see literally the same metric). The config's workload knobs are
// used only for naming/defaults; the space is served as given.
func BuildSnapshotOver(cfg Config, space metric.Space, name string) (*Snapshot, error) {
	return buildSnapshotOver(cfg, space, name, true)
}

// buildSnapshotOver is BuildSnapshotOver; overlay false leaves the
// overlay out whatever the config says, for a caller that builds the
// served one itself (BuildServed), so the recorded Config is the recipe
// as asked.
func buildSnapshotOver(cfg Config, space metric.Space, name string, overlay bool) (*Snapshot, error) {
	start := time.Now()
	snap, params, err := indexSnapshot(cfg, space, name, false)
	if err != nil {
		return nil, err
	}
	cfg, n := snap.Config, snap.n
	cons, err := triangulation.NewConstructionParams(snap.Idx, params)
	if err != nil {
		return nil, err
	}

	// The remaining artifacts are independent of each other — labels read
	// only the construction, the overlay only the index — so they build
	// concurrently, each parallel over the worker pool; the label build
	// hides the overlay. No router: the first Route builds it.
	var scheme *distlabel.Scheme
	phases := []func() error{
		func() error {
			t0 := time.Now()
			built, err := distlabel.FromConstruction(cons, cfg.Delta)
			if err != nil {
				return err
			}
			scheme = built
			snap.Build.LabelsTotalSec = time.Since(t0).Seconds()
			snap.Labels = make([]*distlabel.Label, n)
			for u := 0; u < n; u++ {
				snap.Labels[u] = scheme.Label(u)
			}
			snap.LabelMeta = LabelMeta{
				IMax:        cons.IMax,
				MaxT:        scheme.MaxT,
				Level0Count: snap.Labels[0].Level0Count,
			}
			return nil
		},
	}
	if overlay {
		phases = append(phases, snap.buildOverlay)
	}
	if err = par.Group(phases...); err != nil {
		return nil, err
	}

	snap.Build.NetsSec = cons.Timings.Nets.Seconds()
	snap.Build.RadiiSec = cons.Timings.Radii.Seconds()
	snap.Build.PackingsSec = cons.Timings.Packings.Seconds()
	snap.Build.RingsSec = cons.Timings.Rings.Seconds()
	lt := scheme.Timings
	snap.Build.ZSetsSec = lt.ZSets.Seconds()
	snap.Build.TSetsSec = lt.TSets.Seconds()
	snap.Build.HostEnumsSec = lt.HostEnums.Seconds()
	snap.Build.LabelFillSec = lt.Labels.Seconds()
	// Pack the flat serving arenas last: a linear copy of the estimator
	// payload. The Engine's hot path reads these instead of the pointer
	// structures, and the v2 persisted format is exactly their bytes.
	phase := time.Now()
	if snap.Flat, err = newFlatForSnapshot(snap); err != nil {
		return nil, err
	}
	snap.Build.PackSec = time.Since(phase).Seconds()
	if cfg.Verify {
		phase = time.Now()
		if err := snap.verify(); err != nil {
			return nil, err
		}
		snap.Build.VerifySec = time.Since(phase).Seconds()
	}
	snap.finishBuild(start)
	return snap, nil
}

// indexSnapshot is the part of a snapshot a cold build and an arena
// restore share: the validated recipe and the ball index over space.
// The path picks the index: a build gets an eager one, since the
// construction reads every node's sorted row; a restore (restore true)
// gets a LazyIndex, since nothing a restored snapshot serves asks it for
// a sorted row (the router makes its own, see buildRouter).
func indexSnapshot(cfg Config, space metric.Space, name string, restore bool) (*Snapshot, triangulation.Params, error) {
	cfg = cfg.withDefaults()
	// Validate everything validatable before the index build: at large n
	// the index is the first expensive step, and a rebuild triggered over
	// HTTP should reject a bad delta/scheme/profile instantly, not after
	// minutes of construction.
	params, err := cfg.TriangulationParams()
	if err != nil {
		return nil, params, err
	}
	if err := CheckScheme(cfg.Scheme); err != nil {
		return nil, params, err
	}

	opts := metric.Options{Workers: cfg.Workers, Backend: metric.Eager}
	if restore {
		opts.Backend = metric.Lazy
	}
	phase := time.Now()
	idx := metric.New(space, opts)
	n := idx.N()
	if sub, ok := space.(*metric.Subspace); ok && cfg.RefCount > 0 {
		// Churned views run every greedy scan in base-id order so this
		// from-scratch build reproduces the churn engine's incremental
		// repair bit for bit (and vice versa).
		params.StableOrder = sub.BaseOrder()
	}
	return &Snapshot{
		Config: cfg,
		Name:   name,
		Idx:    idx,
		n:      n,
		Build: BuildStats{
			N:        n,
			Workload: name,
			Scheme:   cfg.Scheme,
			Profile:  cfg.Profile,
			Workers:  par.Workers(cfg.Workers, n),
			IndexSec: time.Since(phase).Seconds(),
		},
	}, params, nil
}

// verify checks every pair u < v of the served answer — the arena walk
// Estimate runs — against the exact distance: lower ≤ d ≤ upper, and
// upper ≤ (1+δ)·d, each to a relative 1e-9. The error names the first
// failing pair in (u, v) order.
func (s *Snapshot) verify() error {
	errs := make([]error, s.n)
	par.For(par.Workers(s.Config.Workers, s.n), s.n, func(u int) {
		for v := u + 1; v < s.n; v++ {
			res, err := s.Estimate(u, v)
			if err != nil {
				errs[u] = err
				return
			}
			d := s.Idx.Dist(u, v)
			if !res.OK || res.Lower > d*(1+1e-9) || res.Upper < d*(1-1e-9) || res.Upper > (1+s.Config.Delta)*d*(1+1e-9) {
				errs[u] = fmt.Errorf("oracle: verify: pair (%d,%d) served [%v, %v] (ok=%v), want lower ≤ d = %v ≤ upper ≤ (1+%v)·d", u, v, res.Lower, res.Upper, res.OK, d, s.Config.Delta)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildOverlay builds the Meridian overlay over the index (unless
// skipped); it reads nothing but the index, so it may run beside any
// other build phase.
func (s *Snapshot) buildOverlay() error {
	if s.Config.SkipOverlay {
		return nil
	}
	t0 := time.Now()
	overlay, err := nnsearch.New(s.Idx, OverlayMembers(s.n, s.Config.MemberStride), nnsearch.DefaultConfig(s.Config.Seed))
	if err != nil {
		return err
	}
	s.Build.OverlaySec = time.Since(t0).Seconds()
	s.setOverlay(overlay)
	return nil
}

// finishBuild stamps the wall-clock total (less than the sum of phases
// when independent artifacts built concurrently).
func (s *Snapshot) finishBuild(start time.Time) {
	s.BuildElapsed = time.Since(start)
	s.Build.TotalSec = s.BuildElapsed.Seconds()
}

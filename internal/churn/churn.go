// Package churn is the incremental membership engine: dynamic node
// join/leave with localized repair, feeding delta snapshots into the
// oracle serving layer.
//
// The paper's closing argument (Section 6) is that rings of neighbors
// suit peer-to-peer networks precisely because the structures are
// sparse and locally maintainable under continuous membership churn.
// Everything below this package, though, builds from scratch: before
// this engine existed, a single node join at serving scale cost a full
// rebuild (seconds to minutes), which no deployment absorbing
// continuous arrivals can afford. The Mutator closes that gap:
//
//   - A capacity-sized base workload is generated once; the live node
//     set is a mutable subset of it. Joins activate dormant base nodes,
//     leaves retire active ones by swapping the last internal id into
//     the vacated slot — the minimal-perturbation id policy: every
//     mutation renames at most one surviving node.
//   - The distance-sorted rows are maintained incrementally
//     (metric.DynamicIndex), never rebuilt.
//   - The cheap global substrate (nets, radii, packings, X/Y/Zoom
//     rings) is rebuilt per commit on a frozen copy of the rows, then
//     content-diffed against the previous commit.
//   - The expensive label layer is repaired locally: Z-sets are patched
//     point-wise from the net-membership diff, virtual enumerations use
//     an identity fast path (at lab scale T_u saturates the node set,
//     so ψ_u is the identity map and joins shift no indices), and only
//     nodes whose label inputs actually changed — dirty rings, a
//     renamed dependency, a shifted ψ-index — are refilled through the
//     same distlabel.FillLabel the full build uses. Clean nodes keep
//     their previous *Label pointer: the delta snapshot structurally
//     shares everything that did not change.
//   - Each batch of mutations commits one immutable oracle.Snapshot
//     (assembled via oracle.AssembleSnapshot over the frozen index), so
//     Engine.Swap publishes churn results with the same lock-free,
//     zero-downtime contract as full rebuilds.
//
// Correctness contract: after any mutation batch, the delta snapshot's
// wire-encoded labels and its estimate/nearest/route answers are
// byte-identical to a from-scratch oracle.BuildSnapshotOver on the
// surviving node set (the property tests enforce this across every
// workload family, under -race, with concurrent readers). Whenever a
// global precondition of incremental repair breaks — the Z scale
// ladder moved because the diameter or minimum distance changed, or
// log2(n) crossed an integer — the engine falls back to a full
// recompute of the affected layer, which is slower but bit-equal, and
// counts the fallback in its stats.
//
// The router (Theorem 2.1) has no localized form here: a commit rebuilds
// it from scratch, and only when the snapshot it replaces was routed on
// (oracle.Snapshot.InheritRouter); otherwise the first /route builds it.
package churn

import (
	"errors"
	"fmt"

	"rings/internal/metric"
	"rings/internal/oracle"
	"rings/internal/workload"
)

// ErrBelowFloor marks a leave refused because it would shrink the
// space below Config.MinNodes (serving layers map it to a
// machine-readable code so load generators can tell a bounds refusal
// from a genuine failure).
var ErrBelowFloor = errors.New("churn: leave would shrink below the MinNodes floor")

// ErrCommit marks a mutation batch that passed validation but failed
// while building or committing the delta state — an internal engine
// failure, not bad input. Serving layers map it to a 500-class status
// (every other Apply error is a client-input problem).
var ErrCommit = errors.New("churn: commit failed")

// OpKind selects a mutation.
type OpKind int

// Mutation kinds.
const (
	// Join activates a dormant base node.
	Join OpKind = iota
	// Leave retires an active base node.
	Leave
)

func (k OpKind) String() string {
	if k == Join {
		return "join"
	}
	return "leave"
}

// Op is one membership mutation, named by the stable base id (internal
// ids are positional and churn under renames; base ids never do).
type Op struct {
	Kind OpKind `json:"kind"`
	Base int    `json:"base"`
}

// Universe replaces the spec-generated base workload with an explicit
// base space and an explicit ownership slice of it: the mutator serves
// only the Owned base ids. The shard fleet (internal/shard) uses it to
// run one mutator per shard over disjoint slices of a single global
// workload, so every shard's distances come from literally the same
// metric and the cross-shard beacon tier stays meaningful.
type Universe struct {
	// Base is the global base space; op base ids index it directly.
	Base metric.Space
	// Name is the instance name stamped on every committed snapshot.
	Name string
	// Owned are the base ids this mutator may ever serve (its capacity
	// is len(Owned)); ops naming an unowned base are rejected.
	Owned []int32
	// Active are the initially active base ids, a subset of Owned,
	// activated in slice order (internal id = slice position).
	Active []int32
}

// Config describes a churn engine.
type Config struct {
	// Oracle is the build recipe: workload family/size knobs, estimator
	// scheme, profile, artifact toggles. Its N is the initial active
	// count. The engine maintains its own eager-equivalent dynamic
	// index.
	Oracle oracle.Config
	// Capacity is the base-workload size (the maximum concurrent node
	// count); 0 defaults to 2*N. For the grid family the capacity is
	// always the full side*side lattice. Ignored when Universe is set
	// (the capacity is then len(Universe.Owned)).
	Capacity int
	// MinNodes refuses leaves that would shrink the space below this
	// floor (default 8; the constructions need at least 2 nodes).
	MinNodes int
	// Universe, when non-nil, supplies the base space and the owned
	// base-id subset explicitly instead of generating a workload from
	// the Oracle spec. The Oracle workload knobs then only describe the
	// family for naming and persistence.
	Universe *Universe
}

func (c Config) withDefaults() (Config, error) {
	c.Oracle = c.Oracle.WithDefaults()
	if c.Universe != nil {
		if err := c.Universe.validate(); err != nil {
			return c, err
		}
		c.Oracle.N = len(c.Universe.Active)
		c.Capacity = len(c.Universe.Owned)
	} else {
		initial, capacity, err := workload.ChurnSizes(c.Oracle.Spec(), c.Capacity)
		if err != nil {
			return c, err
		}
		c.Oracle.N = initial
		c.Capacity = capacity
	}
	if c.Oracle.RefCount == 0 {
		// Pin the construction's mass normalization to the capacity so
		// the substrate is churn-stable (see triangulation.Params.RefN).
		c.Oracle.RefCount = c.Capacity
	}
	if c.MinNodes == 0 {
		c.MinNodes = 8
	}
	if c.MinNodes < 2 {
		c.MinNodes = 2
	}
	if c.Oracle.N < c.MinNodes {
		return c, fmt.Errorf("churn: initial node count %d below MinNodes %d", c.Oracle.N, c.MinNodes)
	}
	return c, nil
}

func (u *Universe) validate() error {
	if u.Base == nil {
		return fmt.Errorf("churn: universe needs a base space")
	}
	if len(u.Owned) < 2 {
		return fmt.Errorf("churn: universe owns %d base ids, need at least 2", len(u.Owned))
	}
	size := u.Base.N()
	owned := make(map[int32]bool, len(u.Owned))
	for _, b := range u.Owned {
		if int(b) < 0 || int(b) >= size {
			return fmt.Errorf("churn: owned base %d outside universe [0, %d)", b, size)
		}
		if owned[b] {
			return fmt.Errorf("churn: owned base %d listed twice", b)
		}
		owned[b] = true
	}
	if len(u.Active) < 2 {
		return fmt.Errorf("churn: universe activates %d base ids, need at least 2", len(u.Active))
	}
	seen := make(map[int32]bool, len(u.Active))
	for _, b := range u.Active {
		if !owned[b] {
			return fmt.Errorf("churn: active base %d is not owned", b)
		}
		if seen[b] {
			return fmt.Errorf("churn: active base %d listed twice", b)
		}
		seen[b] = true
	}
	return nil
}

// OpStats is the per-commit repair report.
type OpStats struct {
	// Ops is the batch size; Op/Base describe the single mutation when
	// Ops == 1.
	Ops  int    `json:"ops"`
	Op   string `json:"op,omitempty"`
	Base int    `json:"base,omitempty"`
	// N is the node count after the commit.
	N int `json:"n"`
	// RepairedLabels / ReusedLabels split the label layer: repaired
	// nodes were refilled, reused nodes kept their previous *Label
	// pointer (structural sharing).
	RepairedLabels int `json:"repaired_labels"`
	ReusedLabels   int `json:"reused_labels"`
	// DirtyRings counts nodes whose X/Y/Zoom content changed.
	DirtyRings int `json:"dirty_rings"`
	// ZPatched counts Z-sets adjusted point-wise; ZRecomputed counts
	// full per-node Z recomputes (joins and ladder fallbacks).
	ZPatched    int `json:"z_patched"`
	ZRecomputed int `json:"z_recomputed"`
	// TRebuilt counts explicit virtual-set rebuilds (0 while the
	// identity fast path holds everywhere).
	TRebuilt int `json:"t_rebuilt"`
	// FullFallback reports that a global precondition broke and the
	// label layer was recomputed wholesale this commit.
	FullFallback bool `json:"full_fallback"`
	// ElapsedSec is the wall-clock of the whole commit (mutation
	// through snapshot assembly, excluding the Engine swap).
	ElapsedSec float64 `json:"elapsed_sec"`
}

// Stats is the engine's cumulative self-report.
type Stats struct {
	Joins         int64   `json:"joins"`
	Leaves        int64   `json:"leaves"`
	Commits       int64   `json:"commits"`
	FullFallbacks int64   `json:"full_fallbacks"`
	RepairedTotal int64   `json:"repaired_labels_total"`
	RepairSec     float64 `json:"repair_sec_total"`
	N             int     `json:"n"`
	Capacity      int     `json:"capacity"`
	Dormant       int     `json:"dormant"`
	Last          OpStats `json:"last"`
}

// frozenIndex is the published form of the maintained rows.
type frozenIndex = metric.Index

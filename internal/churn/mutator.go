package churn

import (
	"fmt"
	"sort"
	"time"

	"rings/internal/distlabel"
	"rings/internal/metric"
	"rings/internal/nnsearch"
	"rings/internal/oracle"
	"rings/internal/par"
	"rings/internal/triangulation"
	"rings/internal/workload"
)

// state is one committed generation of every maintained artifact, in
// the id space of its commit. The next commit diffs against it; the
// published snapshot shares its frozen index and (clean) labels.
type state struct {
	n      int
	frozen *frozenIndex
	cons   *triangulation.Construction

	// Label-layer substrate.
	zp          distlabel.ZParams
	zmasks      [][]bool // per scale, referencing cons's hierarchy
	zAll        [][]int  // Z_u sorted by id
	zOwned      []bool   // false: row shared with the previous state
	xAll        [][]int  // ∪_i X_ui sorted by id
	tExpl       [][]int  // T_u sorted by id; nil when Z_u saturates (identity)
	identity    []int    // shared [0..n) slice backing identity T-sets
	maxT        int
	level0Count int
	labels      []*distlabel.Label

	overlay *nnsearch.Overlay
	snap    *oracle.Snapshot
}

// Mutator owns a mutable copy of the substrate and applies membership
// mutations by localized repair, committing each batch as a delta
// snapshot (see the package doc for the architecture and the
// consistency argument). A Mutator is not safe for concurrent use; the
// snapshots it produces are immutable and freely shareable.
type Mutator struct {
	cfg    Config
	params triangulation.Params
	base   metric.Space
	name   string

	// universe is the base-space size: cfg.Capacity for spec-generated
	// workloads, Base.N() under an explicit Universe (where the mutator
	// owns only a slice of the ids below it).
	universe int
	// owned lists the base ids this mutator may serve, ascending; it is
	// the full [0, universe) range without an explicit Universe.
	owned []int32
	// ownedMask, when non-nil, marks owned base ids (nil = all owned).
	ownedMask []bool

	dyn     *metric.DynamicIndex
	intOf   []int32 // base id -> internal id, -1 when dormant
	dormant []int32 // dormant base ids, ascending

	st *state
	// last is the most recent commit's report; every cumulative figure
	// of Stats is read from metrics, which is where commits count.
	last    OpStats
	metrics *mutatorMetrics

	// fence, when set, runs at the head of every Apply, before any
	// mutation: a non-nil error aborts the batch untouched. The fleet
	// installs an epoch check here so a partition-map change between
	// routing a batch and committing it fails the commit instead of
	// landing it in a stale era.
	fence func() error
}

// NewMutator generates the capacity-sized base workload, activates its
// first N nodes, and performs the initial full build (every later
// commit repairs incrementally against it).
func NewMutator(cfg Config) (*Mutator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := oracle.CheckScheme(cfg.Oracle.Scheme); err != nil {
		return nil, err
	}
	params, err := cfg.Oracle.TriangulationParams()
	if err != nil {
		return nil, err
	}
	var (
		base   metric.Space
		name   string
		active []int32
	)
	m := &Mutator{cfg: cfg, params: params, metrics: newMutatorMetrics()}
	if uni := cfg.Universe; uni != nil {
		base = uni.Base
		name = uni.Name
		m.universe = base.N()
		m.owned = append([]int32(nil), uni.Owned...)
		sort.Slice(m.owned, func(i, j int) bool { return m.owned[i] < m.owned[j] })
		m.ownedMask = make([]bool, m.universe)
		for _, b := range m.owned {
			m.ownedMask[b] = true
		}
		active = append([]int32(nil), uni.Active...)
	} else {
		base, name, err = workload.ChurnBase(cfg.Oracle.Spec(), cfg.Capacity)
		if err != nil {
			return nil, err
		}
		m.universe = cfg.Capacity
		m.owned = make([]int32, cfg.Capacity)
		for b := range m.owned {
			m.owned[b] = int32(b)
		}
		active = make([]int32, cfg.Oracle.N)
		for i := range active {
			active[i] = int32(i)
		}
	}
	m.base, m.name = base, name
	m.intOf = make([]int32, m.universe)
	for b := range m.intOf {
		m.intOf[b] = -1
	}
	for i, b := range active {
		m.intOf[b] = int32(i)
	}
	for _, b := range m.owned {
		if m.intOf[b] < 0 {
			m.dormant = append(m.dormant, b)
		}
	}
	m.dyn, err = metric.NewDynamicIndex(base, active, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, _, err := m.buildState(nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	m.st = st
	m.last = OpStats{N: st.n, RepairedLabels: labelCount(st), ElapsedSec: time.Since(start).Seconds(), FullFallback: true}
	m.metrics.nodes.Set(float64(st.n))
	m.metrics.dormant.Set(float64(len(m.dormant)))
	return m, nil
}

func labelCount(st *state) int {
	if st.labels == nil {
		return 0
	}
	return len(st.labels)
}

// Snapshot returns the current delta snapshot (immutable).
func (m *Mutator) Snapshot() *oracle.Snapshot { return m.st.snap }

// Stats returns the cumulative repair report: the rings_churn_* series
// read back (repair seconds and repaired labels are the sums of the
// commit-latency and repair-size histograms), plus the current
// membership and the last commit's own report.
func (m *Mutator) Stats() Stats {
	mm := m.metrics
	return Stats{
		Joins:         mm.joins.Value(),
		Leaves:        mm.leaves.Value(),
		Commits:       mm.commits.Value(),
		FullFallbacks: mm.fullFallbacks.Value(),
		RepairedTotal: int64(mm.repairLabels.Sum()),
		RepairSec:     mm.commitUs.Sum() / 1e6,
		N:             m.dyn.N(),
		Capacity:      m.cfg.Capacity,
		Dormant:       len(m.dormant),
		Last:          m.last,
	}
}

// N reports the current node count.
func (m *Mutator) N() int { return m.dyn.N() }

// Config returns the resolved engine config.
func (m *Mutator) Config() Config { return m.cfg }

// ActiveBase reports the base id serving as internal node u.
func (m *Mutator) ActiveBase(u int) int { return m.dyn.BaseNode(u) }

// InternalOf reports the internal id of a base node (-1 when dormant
// or not owned by this mutator).
func (m *Mutator) InternalOf(base int) int {
	if base < 0 || base >= m.universe {
		return -1
	}
	return int(m.intOf[base])
}

// NextDormant reports the smallest dormant base id, or -1 when the
// universe is at capacity.
func (m *Mutator) NextDormant() int {
	if len(m.dormant) == 0 {
		return -1
	}
	return int(m.dormant[0])
}

// DormantBases returns up to max dormant base ids, ascending.
func (m *Mutator) DormantBases(max int) []int {
	if max > len(m.dormant) {
		max = len(m.dormant)
	}
	out := make([]int, max)
	for i := 0; i < max; i++ {
		out[i] = int(m.dormant[i])
	}
	return out
}

// FrozenSpace returns the immutable metric view of the current commit —
// the space a from-scratch reference build must index to reproduce this
// engine's snapshot bit for bit.
func (m *Mutator) FrozenSpace() *metric.Subspace {
	return m.st.frozen.Space().(*metric.Subspace)
}

// SetFence installs (or clears, with nil) the pre-commit validation
// hook: fence runs at the head of every Apply and a non-nil error
// aborts the batch before any mutation. Callers own the mutator's
// single-writer discipline, so SetFence follows the same rule as Apply:
// one goroutine at a time.
func (m *Mutator) SetFence(fence func() error) { m.fence = fence }

// Apply applies a batch of mutations and commits one delta snapshot.
// An invalid op (joining an active node, leaving a dormant one,
// overflowing capacity, shrinking below MinNodes) fails the whole batch
// before any mutation is applied.
func (m *Mutator) Apply(ops ...Op) (*oracle.Snapshot, error) {
	if len(ops) == 0 {
		return m.st.snap, nil
	}
	if m.fence != nil {
		if err := m.fence(); err != nil {
			return nil, err
		}
	}
	if err := m.validate(ops); err != nil {
		m.metrics.commitErrors.Inc()
		return nil, err
	}
	start := time.Now()
	n0 := m.dyn.N()

	// Membership mutations, composing the old->new id permutation.
	cur2old := make([]int32, n0, n0+len(ops))
	for i := range cur2old {
		cur2old[i] = int32(i)
	}
	for _, op := range ops {
		switch op.Kind {
		case Join:
			if _, err := m.dyn.Join(op.Base); err != nil {
				return nil, err
			}
			m.claimBase(op.Base, m.dyn.N()-1)
			cur2old = append(cur2old, -1)
		case Leave:
			u := int(m.intOf[op.Base])
			renamedFrom, err := m.dyn.Leave(u)
			if err != nil {
				return nil, err
			}
			m.releaseBase(op.Base)
			if renamedFrom != u {
				m.intOf[m.dyn.BaseNode(u)] = int32(u)
			}
			cur2old[u] = cur2old[renamedFrom]
			cur2old = cur2old[:len(cur2old)-1]
		default:
			return nil, fmt.Errorf("churn: unknown op kind %d", op.Kind)
		}
	}
	new2old := cur2old
	old2new := make([]int32, n0)
	for o := range old2new {
		old2new[o] = -1
	}
	for u, o := range new2old {
		if o >= 0 {
			old2new[o] = int32(u)
		}
	}

	st, ops2, err := m.buildState(m.st, new2old, old2new, ops)
	if err != nil {
		// The membership already mutated; restore it from the previous
		// commit's frozen view so the mutator keeps its "a failed batch
		// changes nothing" contract (build failures here are rare —
		// validate() screens everything screenable — so the O(n^2)
		// row rebuild on this path is acceptable).
		m.metrics.commitErrors.Inc()
		if rbErr := m.rollback(); rbErr != nil {
			return nil, fmt.Errorf("%w: %v (rollback also failed: %v)", ErrCommit, err, rbErr)
		}
		return nil, fmt.Errorf("%w: %v", ErrCommit, err)
	}
	m.st = st
	m.metrics.commits.Inc()
	for _, op := range ops {
		if op.Kind == Join {
			m.metrics.joins.Inc()
		} else {
			m.metrics.leaves.Inc()
		}
	}
	ops2.ElapsedSec = time.Since(start).Seconds()
	ops2.N = st.n
	ops2.Ops = len(ops)
	if len(ops) == 1 {
		ops2.Op = ops[0].Kind.String()
		ops2.Base = ops[0].Base
	}
	if ops2.FullFallback {
		m.metrics.fullFallbacks.Inc()
	}
	m.last = *ops2
	m.metrics.commitUs.Observe(ops2.ElapsedSec * 1e6)
	m.metrics.repairLabels.Observe(float64(ops2.RepairedLabels))
	m.metrics.nodes.Set(float64(st.n))
	m.metrics.dormant.Set(float64(len(m.dormant)))
	return st.snap, nil
}

func (m *Mutator) validate(ops []Op) error {
	n := m.dyn.N()
	// Simulate membership counts and per-base state transitions.
	pend := map[int]OpKind{}
	for _, op := range ops {
		if op.Base < 0 || op.Base >= m.universe {
			return fmt.Errorf("churn: base id %d outside the universe [0, %d)", op.Base, m.universe)
		}
		if m.ownedMask != nil && !m.ownedMask[op.Base] {
			return fmt.Errorf("churn: base id %d is not owned by this mutator", op.Base)
		}
		active := m.intOf[op.Base] >= 0
		if k, seen := pend[op.Base]; seen {
			active = k == Join
		}
		switch op.Kind {
		case Join:
			if active {
				return fmt.Errorf("churn: join of active base %d", op.Base)
			}
			n++
		case Leave:
			if !active {
				return fmt.Errorf("churn: leave of dormant base %d", op.Base)
			}
			if n <= m.cfg.MinNodes {
				return fmt.Errorf("%w (MinNodes=%d)", ErrBelowFloor, m.cfg.MinNodes)
			}
			n--
		}
		pend[op.Base] = op.Kind
	}
	return nil
}

// rollback restores the membership (dynamic index, base maps, dormant
// pool) to the last committed state after a failed buildState.
func (m *Mutator) rollback() error {
	nodes := m.st.frozen.Space().(*metric.Subspace).BaseNodes()
	dyn, err := metric.NewDynamicIndex(m.base, nodes, m.cfg.Capacity)
	if err != nil {
		return err
	}
	m.dyn = dyn
	for b := range m.intOf {
		m.intOf[b] = -1
	}
	for u, b := range nodes {
		m.intOf[b] = int32(u)
	}
	m.dormant = m.dormant[:0]
	for _, b := range m.owned {
		if m.intOf[b] < 0 {
			m.dormant = append(m.dormant, b)
		}
	}
	return nil
}

func (m *Mutator) claimBase(base, internal int) {
	m.intOf[base] = int32(internal)
	for i, b := range m.dormant {
		if int(b) == base {
			m.dormant = append(m.dormant[:i], m.dormant[i+1:]...)
			return
		}
	}
}

func (m *Mutator) releaseBase(base int) {
	m.intOf[base] = -1
	i := sort.Search(len(m.dormant), func(i int) bool { return int(m.dormant[i]) >= base })
	m.dormant = append(m.dormant, 0)
	copy(m.dormant[i+1:], m.dormant[i:])
	m.dormant[i] = int32(base)
}

// buildState runs the repair pipeline: prev == nil (or a broken global
// precondition) means a full build; otherwise the diff-driven localized
// path. Both produce bit-identical artifacts by construction — they
// share every builder with the from-scratch path.
func (m *Mutator) buildState(prev *state, new2old, old2new []int32, ops []Op) (*state, *OpStats, error) {
	cfg := m.cfg.Oracle
	workers := cfg.Workers
	ost := &OpStats{}

	start := time.Now()
	phase := time.Now()
	frozen := m.dyn.Freeze()
	n := frozen.N()
	st := &state{n: n, frozen: frozen}
	indexSec := time.Since(phase).Seconds()

	params := m.params
	params.StableOrder = frozen.Space().(*metric.Subspace).BaseOrder()
	cons, err := triangulation.NewConstructionParams(frozen, params)
	if err != nil {
		return nil, nil, fmt.Errorf("churn: construction: %w", err)
	}
	st.cons = cons

	zSec, tSec, fillSec, err := m.repairLabels(prev, st, new2old, old2new, ost)
	if err != nil {
		return nil, nil, err
	}

	var overlaySec float64
	if !cfg.SkipOverlay {
		phase = time.Now()
		overlay, err := nnsearch.New(frozen, oracle.OverlayMembers(n, cfg.MemberStride), nnsearch.DefaultConfig(cfg.Seed))
		if err != nil {
			return nil, nil, err
		}
		st.overlay = overlay
		overlaySec = time.Since(phase).Seconds()
	}

	sub := frozen.Space().(*metric.Subspace)
	elapsed := time.Since(start)
	build := oracle.BuildStats{
		N:              n,
		Workload:       m.name,
		Scheme:         cfg.Scheme,
		Profile:        cfg.Profile,
		Workers:        par.Workers(workers, n),
		IndexSec:       indexSec,
		NetsSec:        cons.Timings.Nets.Seconds(),
		RadiiSec:       cons.Timings.Radii.Seconds(),
		PackingsSec:    cons.Timings.Packings.Seconds(),
		RingsSec:       cons.Timings.Rings.Seconds(),
		ZSetsSec:       zSec,
		TSetsSec:       tSec,
		LabelFillSec:   fillSec,
		LabelsTotalSec: zSec + tSec + fillSec,
		OverlaySec:     overlaySec,
	}
	art := oracle.Artifacts{
		Idx:     frozen,
		Labels:  st.labels,
		Overlay: st.overlay,
		Perm:    sub.BaseNodes(),
		// The persisted capacity is the universe size, not the owned
		// slice: Perm names global base ids, and a warm start must
		// regenerate the base workload at the size those ids index.
		Capacity: m.universe,
	}
	if st.labels != nil {
		art.LabelMeta = oracle.LabelMeta{
			IMax:        cons.IMax,
			MaxT:        st.maxT,
			Level0Count: st.level0Count,
		}
	}
	if st.snap, err = oracle.AssembleSnapshot(cfg, m.name, art, elapsed, build); err != nil {
		return nil, nil, err
	}
	// A commit inherits routing demand: the Theorem 2.1 tables (half of
	// a commit's CPU at n = 512, garbage one commit later) are built
	// before the swap only if the snapshot being replaced was routed on —
	// never for the initial state — and otherwise left to the first /route.
	if prev != nil {
		if err := st.snap.InheritRouter(prev.snap); err != nil {
			return nil, nil, err
		}
	}
	return st, ost, nil
}

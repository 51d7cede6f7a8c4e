package churn

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rings/internal/distlabel"
	"rings/internal/oracle"
	"rings/internal/workload"
)

// traceFamilies are the four workload families of the catalogue, sized
// small enough that the from-scratch reference build after every trace
// prefix stays affordable under -race.
func traceFamilies(short bool) []oracle.Config {
	cfgs := []oracle.Config{
		{Workload: "latency", N: 40, Seed: 3, MemberStride: 3},
		{Workload: "cube", N: 36, Seed: 5, MemberStride: 4},
		{Workload: "expline", N: 32, LogAspect: 40, MemberStride: 4},
		{Workload: "grid", Side: 7, MemberStride: 5},
	}
	if short {
		cfgs = cfgs[:1]
	}
	return cfgs
}

func traceFor(t testing.TB, m *Mutator, ops int, seed int64) []Op {
	t.Helper()
	spec := workload.MetricSpec{
		Name:      m.cfg.Oracle.Workload,
		N:         m.cfg.Oracle.N,
		Side:      m.cfg.Oracle.Side,
		LogAspect: m.cfg.Oracle.LogAspect,
		Seed:      m.cfg.Oracle.Seed,
	}
	tr, err := workload.GenerateChurnTrace(spec, m.cfg.Capacity, workload.ChurnTraceConfig{
		Ops:      ops,
		Seed:     seed,
		MinNodes: m.cfg.MinNodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Op, len(tr.Ops))
	for i, op := range tr.Ops {
		kind := Leave
		if op.Join {
			kind = Join
		}
		out[i] = Op{Kind: kind, Base: op.Base}
	}
	return out
}

// wireHash hashes every wire-encoded label of a snapshot.
func wireHash(t testing.TB, snap *oracle.Snapshot) [32]byte {
	t.Helper()
	wire, err := snap.LabelWire()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for u, lab := range snap.Labels {
		buf, bits, err := wire.Encode(lab)
		if err != nil {
			t.Fatalf("encode label %d: %v", u, err)
		}
		fmt.Fprintf(h, "%d:%d:", u, bits)
		h.Write(buf)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// assertSnapshotsIdentical compares the delta snapshot against the
// from-scratch reference: wire labels byte-for-byte, then every query
// surface (all-pairs estimates, every nearest target, sampled routes).
func assertSnapshotsIdentical(t *testing.T, step int, got, want *oracle.Snapshot, rng *rand.Rand) {
	t.Helper()
	n := want.N()
	if got.N() != n {
		t.Fatalf("step %d: n=%d want %d", step, got.N(), n)
	}
	if (got.Labels == nil) != (want.Labels == nil) {
		t.Fatalf("step %d: label presence mismatch", step)
	}
	if got.Labels != nil {
		gw, err := got.LabelWire()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ww, err := want.LabelWire()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for u := 0; u < n; u++ {
			gb, gbits, err := gw.Encode(got.Labels[u])
			if err != nil {
				t.Fatalf("step %d: encode delta label %d: %v", step, u, err)
			}
			wb, wbits, err := ww.Encode(want.Labels[u])
			if err != nil {
				t.Fatalf("step %d: encode reference label %d: %v", step, u, err)
			}
			if gbits != wbits || !bytes.Equal(gb, wb) {
				t.Fatalf("step %d: wire label %d differs (%d vs %d bits)", step, u, gbits, wbits)
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			ge, err := got.Estimate(u, v)
			if err != nil {
				t.Fatalf("step %d: estimate(%d,%d): %v", step, u, v, err)
			}
			lo, up, ok := distlabel.Estimate(want.Labels[u], want.Labels[v])
			if ge.Lower != lo || ge.Upper != up || ge.OK != ok {
				t.Fatalf("step %d: estimate(%d,%d) %+v, reference pointer walk (%v, %v, %v)", step, u, v, ge, lo, up, ok)
			}
		}
	}
	for target := 0; target < n; target++ {
		gn, err1 := got.Nearest(target)
		wn, err2 := want.Nearest(target)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d: nearest(%d) err %v vs %v", step, target, err1, err2)
		}
		if err1 != nil {
			continue
		}
		gn.Version, wn.Version = 0, 0
		if gn.Member != wn.Member || gn.Dist != wn.Dist || gn.Hops != wn.Hops {
			t.Fatalf("step %d: nearest(%d) %+v vs %+v", step, target, gn, wn)
		}
	}
	routes := 24
	for k := 0; k < routes; k++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		gr, err1 := got.Route(src, dst)
		wr, err2 := want.Route(src, dst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d: route(%d,%d) err %v vs %v", step, src, dst, err1, err2)
		}
		if err1 != nil {
			continue
		}
		gr.Version, wr.Version = 0, 0
		if gr.Length != wr.Length || gr.Hops != wr.Hops || len(gr.Path) != len(wr.Path) {
			t.Fatalf("step %d: route(%d,%d) %+v vs %+v", step, src, dst, gr, wr)
		}
	}
}

// TestMutatorByteIdentity is the gold-standard acceptance property:
// after every prefix of a 64-op churn trace, on every workload family,
// the delta snapshot's wire-encoded labels and its
// estimate/nearest/route answers are byte-identical to a from-scratch
// build on the surviving node set (same frozen metric view). Routing is
// enabled, so the per-commit router rebuild is covered too.
func TestMutatorByteIdentity(t *testing.T) {
	ops := 64
	if testing.Short() {
		ops = 16
	}
	for _, ocfg := range traceFamilies(testing.Short()) {
		ocfg := ocfg
		t.Run(ocfg.Workload, func(t *testing.T) {
			t.Parallel()
			m, err := NewMutator(Config{Oracle: ocfg})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			trace := traceFor(t, m, ops, 23)
			for step, op := range trace {
				snap, err := m.Apply(op)
				if err != nil {
					t.Fatalf("step %d (%s base %d): %v", step, op.Kind, op.Base, err)
				}
				ref, err := oracle.BuildSnapshotOver(m.cfg.Oracle, m.FrozenSpace(), m.name)
				if err != nil {
					t.Fatalf("step %d: reference build: %v", step, err)
				}
				assertSnapshotsIdentical(t, step, snap, ref, rng)
			}
			st := m.Stats()
			if st.Commits != int64(len(trace)) {
				t.Fatalf("commits %d, want %d", st.Commits, len(trace))
			}
			if st.Joins+st.Leaves != int64(len(trace)) {
				t.Fatalf("op counts %d+%d, want %d", st.Joins, st.Leaves, len(trace))
			}
		})
	}
}

// TestMutatorMaintainedSubstrate pins the incrementally maintained
// Z-sets and T-set representation against the full builders after every
// op of a mixed trace — the internal invariant the label byte-identity
// rests on.
func TestMutatorMaintainedSubstrate(t *testing.T) {
	ocfg := oracle.Config{Workload: "latency", N: 36, Seed: 9, SkipOverlay: true}
	m, err := NewMutator(Config{Oracle: ocfg})
	if err != nil {
		t.Fatal(err)
	}
	trace := traceFor(t, m, 48, 31)
	for step, op := range trace {
		if _, err := m.Apply(op); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		st := m.st
		wantZ := distlabel.BuildZSets(st.cons, 1)
		for u := range wantZ {
			if len(st.zAll[u]) != len(wantZ[u]) {
				t.Fatalf("step %d: Z_%d size %d want %d", step, u, len(st.zAll[u]), len(wantZ[u]))
			}
			for k := range wantZ[u] {
				if st.zAll[u][k] != wantZ[u][k] {
					t.Fatalf("step %d: Z_%d[%d] = %d want %d", step, u, k, st.zAll[u][k], wantZ[u][k])
				}
			}
		}
		vs := distlabel.NewVirtualSets(st.identity, st.tExpl)
		for u := 0; u < st.n; u++ {
			nodes := vs.Enum(u).Nodes()
			// The maintained representation must enumerate exactly T_u.
			var set []int
			{
				var scratch = make([]bool, st.n)
				add := func(vals []int) {
					for _, v := range vals {
						scratch[v] = true
					}
				}
				add(st.xAll[u])
				add(st.zAll[u])
				for _, v := range st.xAll[u] {
					add(st.zAll[v])
				}
				for v, in := range scratch {
					if in {
						set = append(set, v)
					}
				}
			}
			if len(nodes) != len(set) {
				t.Fatalf("step %d: T_%d size %d want %d", step, u, len(nodes), len(set))
			}
			for k := range set {
				if nodes[k] != set[k] {
					t.Fatalf("step %d: T_%d[%d] = %d want %d", step, u, k, nodes[k], set[k])
				}
			}
		}
	}
}

// TestMutatorConcurrentReaders runs the byte-identity trace while 16
// reader goroutines hammer a live Engine across every Swap, asserting
// each answer is consistent with the snapshot version it reports —
// run under -race this also proves the delta-swap publication is sound.
func TestMutatorConcurrentReaders(t *testing.T) {
	ocfg := oracle.Config{Workload: "latency", N: 40, Seed: 3, MemberStride: 3}
	m, err := NewMutator(Config{Oracle: ocfg})
	if err != nil {
		t.Fatal(err)
	}
	engine := oracle.NewEngine(m.Snapshot(), oracle.EngineOptions{})

	var mu sync.Mutex
	byVersion := map[int64]*oracle.Snapshot{1: m.Snapshot()}
	snapFor := func(v int64) *oracle.Snapshot {
		mu.Lock()
		defer mu.Unlock()
		return byVersion[v]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The engine's n can shrink under the reader's feet; draw
				// from a floor every snapshot satisfies.
				u, v := rng.Intn(8), rng.Intn(8)
				res, err := engine.Estimate(u, v)
				if err != nil {
					errc <- fmt.Errorf("reader %d: estimate: %v", r, err)
					return
				}
				snap := snapFor(res.Version)
				if snap == nil {
					errc <- fmt.Errorf("reader %d: unknown version %d", r, res.Version)
					return
				}
				lo, up, ok := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
				if res.Lower != lo || res.Upper != up || res.OK != ok {
					errc <- fmt.Errorf("reader %d: answer from wrong era: %+v vs (%v, %v, %v)", r, res, lo, up, ok)
					return
				}
				if tgt := rng.Intn(8); tgt%3 == 0 {
					if _, err := engine.Nearest(tgt); err != nil {
						errc <- fmt.Errorf("reader %d: nearest: %v", r, err)
						return
					}
				}
			}
		}(r)
	}

	trace := traceFor(t, m, 32, 41)
	for step, op := range trace {
		snap, err := m.Apply(op)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		mu.Lock()
		// Version is assigned inside Swap; record under the lock after.
		engine.Swap(snap)
		byVersion[snap.Version] = snap
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := engine.Snapshot().N(); got != m.N() {
		t.Fatalf("engine serves n=%d, mutator at n=%d", got, m.N())
	}
}

// TestMutatorValidation covers the recipe check, the capacity check
// and the batch validator.
func TestMutatorValidation(t *testing.T) {
	ocfg := oracle.Config{Workload: "cube", N: 16, Seed: 1, SkipOverlay: true}
	retired := ocfg
	retired.Scheme = "beacons"
	if _, err := NewMutator(Config{Oracle: retired, Capacity: 20}); !errors.Is(err, oracle.ErrSchemeRetired) {
		t.Errorf("NewMutator under the retired beacons scheme: %v, want ErrSchemeRetired", err)
	}
	// Refused before the base workload is generated: nothing that size
	// is built.
	if _, err := NewMutator(Config{Oracle: ocfg, Capacity: oracle.ArenaWidth}); !errors.Is(err, oracle.ErrArenaWidth) {
		t.Errorf("NewMutator at capacity %d: %v, want ErrArenaWidth", oracle.ArenaWidth, err)
	}
	m, err := NewMutator(Config{Oracle: ocfg, Capacity: 20, MinNodes: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(Op{Kind: Join, Base: 3}); err == nil {
		t.Error("join of active base should fail")
	}
	if _, err := m.Apply(Op{Kind: Leave, Base: 17}); err == nil {
		t.Error("leave of dormant base should fail")
	}
	if _, err := m.Apply(Op{Kind: Leave, Base: 0}, Op{Kind: Leave, Base: 1}, Op{Kind: Leave, Base: 2}); err == nil {
		t.Error("batch shrinking below MinNodes should fail")
	}
	if _, err := m.Apply(Op{Kind: Join, Base: 16}, Op{Kind: Leave, Base: 16}); err != nil {
		t.Errorf("join+leave batch should validate: %v", err)
	}
	if m.N() != 16 {
		t.Fatalf("n=%d after no-op batch, want 16", m.N())
	}
	// Batches are atomic: the same base can cycle, capacity is enforced.
	for b := 16; b < 20; b++ {
		if _, err := m.Apply(Op{Kind: Join, Base: b}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Apply(Op{Kind: Join, Base: 5}); err == nil {
		t.Error("join at capacity of active base should fail")
	}
}

// TestWireHashStability guards the hash helper itself (same snapshot
// twice -> same hash; the canonical wire encoding is deterministic).
func TestWireHashStability(t *testing.T) {
	ocfg := oracle.Config{Workload: "cube", N: 24, Seed: 2, SkipOverlay: true}
	m, err := NewMutator(Config{Oracle: ocfg})
	if err != nil {
		t.Fatal(err)
	}
	if wireHash(t, m.Snapshot()) != wireHash(t, m.Snapshot()) {
		t.Fatal("wire hash not deterministic")
	}
}

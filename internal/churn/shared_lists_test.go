package churn

import (
	"bytes"
	"testing"

	"rings/internal/distlabel"
	"rings/internal/oracle"
	"rings/internal/telemetry"
)

// fileBytes is the snapshot's persisted form: header plus arena.
func fileBytes(t testing.TB, snap *oracle.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// repacked persists the arena packed from labels under like's header, so
// two results differ exactly when the arenas do.
func repacked(t testing.TB, like *oracle.Snapshot, labels []*distlabel.Label) []byte {
	t.Helper()
	snap, err := oracle.AssembleSnapshot(like.Config, like.Name, oracle.Artifacts{
		Idx: like.Idx, Labels: labels, LabelMeta: like.LabelMeta, Perm: like.Perm, Capacity: like.Capacity,
	}, 0, oracle.BuildStats{})
	if err != nil {
		t.Fatal(err)
	}
	return fileBytes(t, snap)
}

func throughWire(t testing.TB, snap *oracle.Snapshot, labels []*distlabel.Label) []*distlabel.Label {
	t.Helper()
	wire, err := snap.LabelWire()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*distlabel.Label, len(labels))
	for u, lab := range labels {
		buf, bits, err := wire.Encode(lab)
		if err != nil {
			t.Fatal(err)
		}
		if out[u], err = wire.Decode(buf, bits); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func gauge(t testing.TB, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var text bytes.Buffer
	if err := telemetry.WriteText(&text, telemetry.Group{R: reg}); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseText(&text)
	if err != nil {
		t.Fatal(err)
	}
	m := parsed[name]
	if m == nil || len(m.Samples) != 1 {
		t.Fatalf("registry has no scalar %s", name)
	}
	return m.Samples[0].Value
}

// assertSharedArena checks one served snapshot's arena against its
// resident pointer labels: the restored arena validates (every span
// inside yz) and answers every pair bit-identically to the pointer
// walk; labels materialized from the arena, and labels that went
// through the wire codec, pack back to the same bytes; and the arena
// stores fewer lists than it has keys.
func assertSharedArena(t *testing.T, what string, snap *oracle.Snapshot) {
	t.Helper()
	file := fileBytes(t, snap)
	restored, err := oracle.ReadSnapshot(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("%s: restore: %v", what, err)
	}
	if restored.Labels != nil {
		t.Fatalf("%s: restore carries pointer labels; the arena walk is not under test", what)
	}
	n := snap.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			lo, up, ok := distlabel.Estimate(snap.Labels[u], snap.Labels[v])
			got, err := restored.Estimate(u, v)
			if err != nil || got.Lower != lo || got.Upper != up || got.OK != ok {
				t.Fatalf("%s: arena estimate(%d,%d) = %+v/%v, pointer walk (%v, %v, %v)", what, u, v, got, err, lo, up, ok)
			}
		}
	}

	fromArena, err := restored.MaterializeLabels()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repacked(t, snap, fromArena), file) {
		t.Fatalf("%s: pack(MaterializeLabels(arena)) differs from the arena", what)
	}
	// The codec rounds distances, so the wire-decoded arena is compared
	// with its own trip through materialize and the wire again.
	decoded := repacked(t, snap, throughWire(t, snap, snap.Labels))
	viaArena, err := oracle.ReadSnapshot(bytes.NewReader(decoded))
	if err != nil {
		t.Fatalf("%s: restore of the wire-decoded arena: %v", what, err)
	}
	again, err := viaArena.MaterializeLabels()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repacked(t, snap, throughWire(t, snap, again)), decoded) {
		t.Fatalf("%s: arena → labels → wire → labels → arena is not a fixed point", what)
	}

	reg := oracle.NewEngine(restored, oracle.EngineOptions{}).Metrics()
	keys, lists := gauge(t, reg, "rings_arena_keys"), gauge(t, reg, "rings_arena_distinct_lists")
	if lists <= 0 || lists >= keys {
		t.Fatalf("%s: %v lists stored for %v keys: nothing is shared", what, lists, keys)
	}
}

// TestSharedListsSchemeBuildAndRepair runs the arena sharing checks on
// all four workload families, on a scheme build and on the churn
// engine's repaired snapshots after a join and after a leave — whose
// arenas must also equal, byte for byte, the arena of a from-scratch
// build over the same membership.
func TestSharedListsSchemeBuildAndRepair(t *testing.T) {
	for _, ocfg := range traceFamilies(testing.Short()) {
		ocfg := ocfg
		t.Run(ocfg.Workload, func(t *testing.T) {
			t.Parallel()
			built, err := oracle.BuildSnapshot(ocfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSharedArena(t, "scheme build", built)

			m, err := NewMutator(Config{Oracle: ocfg})
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []Op{{Kind: Join, Base: m.NextDormant()}, {Kind: Leave, Base: m.ActiveBase(1)}} {
				snap, err := m.Apply(op)
				if err != nil {
					t.Fatalf("%s base %d: %v", op.Kind, op.Base, err)
				}
				what := "repaired after " + op.Kind.String()
				assertSharedArena(t, what, snap)
				ref, err := oracle.BuildSnapshotOver(m.cfg.Oracle, m.FrozenSpace(), m.name)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(repacked(t, snap, ref.Labels), fileBytes(t, snap)) {
					t.Fatalf("%s: arena differs from a from-scratch build's", what)
				}
			}
		})
	}
}

package oracle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rings/internal/distlabel"
)

// section returns the bytes of one named arena section.
func (f *FlatSnap) section(t testing.TB, name string) []byte {
	t.Helper()
	for _, s := range f.sections {
		if s.Name == name {
			return f.buf[s.Off : s.Off+s.bytes()]
		}
	}
	t.Fatalf("arena has no section %s", name)
	return nil
}

// unshared deep-copies labels so that no two keys hold the same slice:
// the form a wire decoder produces, with the exact distances kept.
func unshared(labels []*distlabel.Label) []*distlabel.Label {
	out := make([]*distlabel.Label, len(labels))
	for u, lab := range labels {
		cp := *lab
		cp.Trans = make([]distlabel.LevelMap, len(lab.Trans))
		for i, lm := range lab.Trans {
			cp.Trans[i] = distlabel.LevelMap{Keys: slices.Clone(lm.Keys), Lists: make([][]distlabel.TransEntry, len(lm.Lists))}
			for k, entries := range lm.Lists {
				cp.Trans[i].Lists[k] = append([]distlabel.TransEntry(nil), entries...)
			}
		}
		out[u] = &cp
	}
	return out
}

// throughWire encodes and decodes every label.
func throughWire(t testing.TB, wire distlabel.Wire, labels []*distlabel.Label) []*distlabel.Label {
	t.Helper()
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

func pack(t testing.TB, labels []*distlabel.Label) *FlatSnap {
	t.Helper()
	f, err := newFlatFromLabels(labels)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestArenaBytesAreAFunctionOfLabelContent is the sharing property on
// every workload family: the arena stores fewer lists than it has keys,
// every span stays inside ents, and packing depends on what the labels
// say and not on how their lists are held — labels materialized from the
// arena (aliased), a copy with every list in its own slice, and labels
// that went through the wire codec all pack to the same bytes (the
// codec rounds distances, so that last arena is compared outside the
// dists section and then shown to be a fixed point of wire → pack).
func TestArenaBytesAreAFunctionOfLabelContent(t *testing.T) {
	for _, cfg := range flatConfigs() {
		snap, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Workload, err)
		}
		f := snap.Flat
		if err := f.validate(); err != nil {
			t.Fatalf("%s: built arena does not validate: %v", cfg.Workload, err)
		}
		if f.lists == 0 || f.lists >= f.keys {
			t.Fatalf("%s: %d stored lists for %d keys: nothing is shared", cfg.Workload, f.lists, f.keys)
		}
		for g := 0; g < len(f.psi); g++ {
			if s, e := f.grpSpan[2*g], f.grpSpan[2*g+1]; s < 0 || s > e || int(e) > len(f.ents)/2 {
				t.Fatalf("%s: group %d spans [%d, %d) outside the %d stored entries", cfg.Workload, g, s, e, len(f.ents)/2)
			}
		}

		aliased := f.materializeLabels()
		if got := pack(t, aliased); !bytes.Equal(got.buf, f.buf) {
			t.Fatalf("%s: pack(materialize(arena)) differs from the arena", cfg.Workload)
		}
		if got := pack(t, unshared(snap.Labels)); !bytes.Equal(got.buf, f.buf) {
			t.Fatalf("%s: labels holding every list separately pack to different bytes", cfg.Workload)
		}

		wire, err := snap.LabelWire()
		if err != nil {
			t.Fatal(err)
		}
		decoded := pack(t, throughWire(t, wire, snap.Labels))
		if len(decoded.buf) != len(f.buf) {
			t.Fatalf("%s: wire-decoded labels pack to %d bytes, built ones to %d", cfg.Workload, len(decoded.buf), len(f.buf))
		}
		for _, s := range f.sections {
			if s.Name != secDists && !bytes.Equal(decoded.section(t, s.Name), f.section(t, s.Name)) {
				t.Fatalf("%s: section %s of wire-decoded labels differs from the built arena", cfg.Workload, s.Name)
			}
		}
		again := pack(t, throughWire(t, wire, decoded.materializeLabels()))
		if !bytes.Equal(again.buf, decoded.buf) {
			t.Fatalf("%s: arena → labels → wire → labels → arena is not a fixed point", cfg.Workload)
		}
	}
}

// TestArenaSizeBudget fails the build's tests when the sharing or the
// key bitmap is lost: the benchmark's dataset (latency, tuned, δ = 0.5)
// at n = 256 packs to 1,776 B per node (3,103 with a span per key, 21,029
// with a list per key); the budget is that plus 10 %.
func TestArenaSizeBudget(t *testing.T) {
	const n, budget = 256, 1954
	snap, err := BuildSnapshot(Config{Workload: "latency", N: n, Seed: 1, Delta: 0.5, Scheme: SchemeLabels, Profile: ProfileTuned})
	if err != nil {
		t.Fatal(err)
	}
	if perNode := snap.Flat.Bytes() / n; perNode > budget {
		t.Fatalf("arena is %d B per node, budget %d", perNode, budget)
	}
}

// TestValidateRejectsBadSpans: a default, exception or chain span may
// name any span inside ents and nothing else, a chain may zoom to a host
// of its own label or -1, and a key bitmap sets no bit at or past its
// label's hosts.
func TestValidateRejectsBadSpans(t *testing.T) {
	f := buildTestSnapshot(t, 43).Flat
	nEnts := int32(len(f.ents) / 2)
	g := len(f.psi) / 2
	u := 0
	for int(f.psiOff[u+1]) <= g {
		u++
	}
	nd := f.distOff[u+1] - f.distOff[u]
	bits := f.groupBits(u, g-int(f.psiOff[u]))
	for _, tc := range []struct {
		name string
		at   []int32 // the elements to overwrite
		to   []int32
		ok   bool
	}{
		{"whole-section", f.grpSpan[2*g : 2*g+2], []int32{0, nEnts}, true},
		{"empty", f.grpSpan[2*g : 2*g+2], []int32{nEnts, nEnts}, true},
		{"end-before-start", f.grpSpan[2*g : 2*g+2], []int32{5, 4}, false},
		{"end-past-ents", f.grpSpan[2*g : 2*g+2], []int32{0, nEnts + 1}, false},
		{"negative-start", f.grpSpan[2*g : 2*g+2], []int32{-1, 3}, false},
		{"chain-whole-section", f.chain[3*g : 3*g+2], []int32{0, nEnts}, true},
		{"chain-end-past-ents", f.chain[3*g : 3*g+2], []int32{0, nEnts + 1}, false},
		{"chain-stops", f.chain[3*g+2 : 3*g+3], []int32{-1}, true},
		{"chain-last-host", f.chain[3*g+2 : 3*g+3], []int32{nd - 1}, true},
		{"chain-past-hosts", f.chain[3*g+2 : 3*g+3], []int32{nd}, false},
		{"chain-below-stop", f.chain[3*g+2 : 3*g+3], []int32{-2}, false},
		{"last-key", bits[(nd-1)>>5 : (nd-1)>>5+1], []int32{bits[(nd-1)>>5] | int32(uint32(1)<<((nd-1)&31))}, true},
		{"key-past-hosts", bits[len(bits)-1:], []int32{-1}, nd&31 == 0},
	} {
		keep := slices.Clone(tc.at)
		copy(tc.at, tc.to)
		err := f.validate()
		copy(tc.at, keep)
		if (err == nil) != tc.ok {
			t.Errorf("%s: %v of %d entries, %d hosts: validate = %v", tc.name, tc.to, nEnts, nd, err)
		}
	}
	if err := f.validate(); err != nil {
		t.Fatalf("restored arena: %v", err)
	}
}

// oldLayoutImage renames a v2 image's grp_span section to the retired
// name in place (ent_span has its length; ent_off is one letter shorter,
// which becomes JSON whitespace, so nothing moves) and recomputes the
// header checksum.
func oldLayoutImage(t testing.TB, img []byte, retired string) []byte {
	t.Helper()
	base := len(persistMagicV2)
	hdr := img[base+v2HeaderPrefix : base+v2HeaderPrefix+int(binary.LittleEndian.Uint32(img[base:]))]
	from := []byte(`"name":"` + secGrpSpan + `"`)
	at := bytes.Index(hdr, from)
	if at < 0 {
		t.Fatal("image has no grp_span section to rename")
	}
	to := fmt.Sprintf(`"name":%*s`, len(from)-len(`"name":`), `"`+retired+`"`)
	copy(hdr[at:], to)
	binary.LittleEndian.PutUint64(img[base+4:], crc64.Checksum(hdr, crcTable))
	return img
}

// TestOldLayoutRefusedByName: a file whose directory carries either
// retired per-key table — ent_off, every key's list stored on its own, or
// ent_span, every key naming its shared list — fails both readers with
// the one sentinel that tells the operator what to do, by name, before
// anything indexes the arena under the wrong rules.
func TestOldLayoutRefusedByName(t *testing.T) {
	snap := buildTestSnapshot(t, 45)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, retired := range retiredSections {
		old := oldLayoutImage(t, bytes.Clone(buf.Bytes()), retired)
		if _, err := ReadSnapshot(bytes.NewReader(old)); !errors.Is(err, ErrOldLayout) {
			t.Fatalf("ReadSnapshot of an image naming %s: %v", retired, err)
		}
		path := filepath.Join(t.TempDir(), "old.bin")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSnapshotFile(path)
		if !errors.Is(err, ErrOldLayout) {
			t.Fatalf("OpenSnapshotFile of a file naming %s: %v", retired, err)
		}
		if want := "retired arena layout; delete it to rebuild"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not tell the operator %q", err, want)
		}
	}
}

// TestEstimateOnUnequalDepthAgreesWithFlat: labels of unequal depth (one
// side's zooming sequence cut short) are answered by the pointer walk
// without a panic and exactly as the flat walk answers the same pair.
func TestEstimateOnUnequalDepthAgreesWithFlat(t *testing.T) {
	snap := buildTestSnapshot(t, 47)
	labels := append([]*distlabel.Label(nil), snap.Labels...)
	short := *labels[0]
	if len(short.Trans) < 2 {
		t.Skip("labels too shallow to truncate")
	}
	short.Trans, short.ZoomPsi = short.Trans[:1], short.ZoomPsi[:1]
	labels[0] = &short
	f := pack(t, labels)
	for v := range labels {
		for _, p := range [][2]int{{0, v}, {v, 0}} {
			lo, up, ok := distlabel.Estimate(labels[p[0]], labels[p[1]])
			flo, fup, fok := f.estimatePair(p[0], p[1])
			if ok != fok || math.Float64bits(lo) != math.Float64bits(flo) || math.Float64bits(up) != math.Float64bits(fup) {
				t.Fatalf("estimate(%d,%d): pointer walk (%v, %v, %v), flat walk (%v, %v, %v)", p[0], p[1], lo, up, ok, flo, fup, fok)
			}
		}
	}
}

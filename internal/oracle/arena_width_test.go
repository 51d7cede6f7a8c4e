package oracle

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rings/internal/distlabel"
)

// widthLabel is a one-level synthetic label with hosts host distances
// and the one ζ entry (y, z) under key 0.
func widthLabel(hosts int, y, z int32) *distlabel.Label {
	return &distlabel.Label{
		Level0Count: 1,
		Dists:       make([]float64, hosts),
		ZoomPsi:     []int32{y},
		Trans:       []distlabel.LevelMap{{Keys: []int32{0}, Lists: [][]distlabel.TransEntry{{{Y: y, Z: z}}}}},
	}
}

// TestPackRefusesWideLabels: a yz word holds Y and Z in 16 bits each, so
// the pack takes the widest values that fit back unchanged and refuses
// any wider entry or host count with ErrArenaWidth rather than
// truncating it. The labels are synthetic: no space of that size is
// built.
func TestPackRefusesWideLabels(t *testing.T) {
	const top = ArenaWidth - 1
	f, err := newFlatFromLabels([]*distlabel.Label{widthLabel(top, top, top)}, 0)
	if err != nil {
		t.Fatalf("pack at the widest values: %v", err)
	}
	if err := f.validate(); err != nil {
		t.Fatalf("widest arena does not validate: %v", err)
	}
	if got := f.materializeLabels()[0].Trans[0].Lists[0][0]; got != (distlabel.TransEntry{Y: top, Z: top}) {
		t.Fatalf("entry (%d, %d) comes back as %+v", top, top, got)
	}
	if h := f.zoomHost(0, 1, top); h != top {
		t.Fatalf("zoomHost(Y %d) = %d, want %d", top, h, top)
	}
	for _, y := range []int32{-1, ArenaWidth, top + 2*ArenaWidth} {
		if h := f.zoomHost(0, 1, y); h != -1 {
			t.Fatalf("zoomHost(Y %d) = %d, want -1: no entry has that Y", y, h)
		}
	}
	for _, tc := range []struct {
		name string
		lab  *distlabel.Label
	}{
		{"Y", widthLabel(2, ArenaWidth, 1)},
		{"Z", widthLabel(2, 1, ArenaWidth)},
		{"negative-Y", widthLabel(2, -1, 1)},
		{"negative-Z", widthLabel(2, 1, -1)},
		{"hosts", widthLabel(ArenaWidth, 1, 1)},
	} {
		if _, err := newFlatFromLabels([]*distlabel.Label{tc.lab}, 0); !errors.Is(err, ErrArenaWidth) {
			t.Errorf("%s: pack = %v, want ErrArenaWidth", tc.name, err)
		}
	}
}

// TestValidateRefusesWideHostCounts: a loaded arena whose offsets give a
// node ArenaWidth hosts is refused by name.
func TestValidateRefusesWideHostCounts(t *testing.T) {
	lab := func(hosts int) *distlabel.Label {
		return &distlabel.Label{Level0Count: 1, Dists: make([]float64, hosts)}
	}
	f := pack(t, []*distlabel.Label{lab(ArenaWidth - 1), lab(1)})
	if err := f.validate(); err != nil {
		t.Fatalf("arena of %d and 1 hosts: %v", ArenaWidth-1, err)
	}
	f.distOff[1]++
	if err := f.validate(); !errors.Is(err, ErrArenaWidth) {
		t.Fatalf("node of %d hosts: validate = %v, want ErrArenaWidth", ArenaWidth, err)
	}
}

// TestWideMaxTRefused: a MaxT at ArenaWidth is refused when a churn
// commit assembles a snapshot and when either reader loads a file whose
// header claims it.
func TestWideMaxTRefused(t *testing.T) {
	snap := buildTestSnapshot(t, 49)
	art := Artifacts{Idx: snap.Idx, Labels: snap.Labels, LabelMeta: snap.LabelMeta}
	art.LabelMeta.MaxT = ArenaWidth - 1
	if _, err := AssembleSnapshot(snap.Config, snap.Name, art, 0, BuildStats{}); err != nil {
		t.Fatalf("AssembleSnapshot at MaxT %d: %v", art.LabelMeta.MaxT, err)
	}
	art.LabelMeta.MaxT = ArenaWidth
	if _, err := AssembleSnapshot(snap.Config, snap.Name, art, 0, BuildStats{}); !errors.Is(err, ErrArenaWidth) {
		t.Fatalf("AssembleSnapshot at MaxT %d: %v, want ErrArenaWidth", ArenaWidth, err)
	}

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	hdr, payload, err := readV2Envelope(bytes.NewReader(buf.Bytes()[len(persistMagicV2):]))
	if err != nil {
		t.Fatal(err)
	}
	hdr.LabelMeta.MaxT = ArenaWidth
	img := reframe(hdr, payload)
	if _, err := ReadSnapshot(bytes.NewReader(img)); !errors.Is(err, ErrArenaWidth) {
		t.Fatalf("ReadSnapshot of a MaxT %d header: %v, want ErrArenaWidth", ArenaWidth, err)
	}
	path := filepath.Join(t.TempDir(), "wide.bin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotFile(path); !errors.Is(err, ErrArenaWidth) {
		t.Fatalf("OpenSnapshotFile of a MaxT %d header: %v, want ErrArenaWidth", ArenaWidth, err)
	}
}

package distlabel

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"rings/internal/bitio"
	"rings/internal/core"
	"rings/internal/triangulation"
	"rings/internal/workload"
)

// linearGet is the reference LevelMap.Get is checked against.
func linearGet(lm LevelMap, x int32) []TransEntry {
	for k, key := range lm.Keys {
		if key == x {
			return lm.Lists[k]
		}
	}
	return nil
}

// TestLevelMapsAreSortedKeys: on all four families at n = 256 under the
// served tuned profile, every ζ map of every label holds strictly
// ascending keys, one list per key, and Get finds for every host index
// (and the ones just outside the label) exactly the list a linear scan
// finds.
func TestLevelMapsAreSortedKeys(t *testing.T) {
	specs := []workload.MetricSpec{
		{Name: "grid", Side: 16},
		{Name: "cube", N: 256, Seed: 3},
		{Name: "expline", N: 256, LogAspect: 60},
		{Name: "latency", N: 256, Seed: 1},
	}
	for _, spec := range specs {
		inst, err := workload.Metric(spec)
		if err != nil {
			t.Fatal(err)
		}
		cons, err := triangulation.NewConstructionParams(inst.Idx, triangulation.TunedParams(0.5/6, 2))
		if err != nil {
			t.Fatal(err)
		}
		s, err := FromConstruction(cons, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < inst.Idx.N(); u++ {
			lab := s.Label(u)
			for i, lm := range lab.Trans {
				if len(lm.Keys) != len(lm.Lists) {
					t.Fatalf("%s: label %d level %d has %d keys for %d lists", inst.Name, u, i, len(lm.Keys), len(lm.Lists))
				}
				for k := 1; k < len(lm.Keys); k++ {
					if lm.Keys[k] <= lm.Keys[k-1] {
						t.Fatalf("%s: label %d level %d keys %v do not ascend strictly", inst.Name, u, i, lm.Keys)
					}
				}
				for x := int32(-1); x <= int32(len(lab.Dists)); x++ {
					got, want := lm.Get(x), linearGet(lm, x)
					if len(got) != len(want) || (len(want) > 0 && &got[0] != &want[0]) {
						t.Fatalf("%s: label %d level %d: Get(%d) = %v, linear scan %v", inst.Name, u, i, x, got, want)
					}
				}
			}
		}
	}
}

// TestFillLabelLeavesScratchClean: FillLabel's mark arrays read all -1
// after every call, a failing one included, so a worker's next label
// cannot read a stale host index. The failing call gets a host
// enumeration missing its last node, a level ≥ 1 neighbor.
func TestFillLabelLeavesScratchClean(t *testing.T) {
	inst, err := workload.Metric(workload.MetricSpec{Name: "expline", N: 28, LogAspect: 60})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(inst.Idx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n, level0 := inst.Idx.N(), s.Label(0).Level0Count
	sc := NewLabelScratch(n)
	clean := func(u int) {
		for w := 0; w < n; w++ {
			if sc.hostZ[w] != -1 || sc.nextZ[w] != -1 {
				t.Fatalf("after labeling %d: marks of %d are %d, %d", u, w, sc.hostZ[w], sc.nextZ[w])
			}
		}
	}
	failed := 0
	for u := 0; u < n; u++ {
		if _, err := FillLabel(s.Cons, u, s.HostEnum(u), level0, s.tSets, sc); err != nil {
			t.Fatal(err)
		}
		clean(u)
		host := s.HostEnum(u).Nodes()
		if len(host) == level0 {
			continue
		}
		short := core.NewEnumOrdered(host[:level0], host[level0:len(host)-1])
		if _, err := FillLabel(s.Cons, u, short, level0, s.tSets, sc); err == nil {
			t.Fatalf("node %d labeled without host node %d", u, host[len(host)-1])
		}
		failed++
		clean(u)
	}
	if failed == 0 {
		t.Fatal("no host enumeration extends past the shared prefix: nothing failed")
	}
}

// TestWireDecodeCanonicalizesTripleOrder: a label whose triples travel in
// any order decodes to the label the canonical bytes decode to, and
// re-encodes to those bytes. The shuffled form is written by Encode
// itself, from a map with one key per triple in shuffled order.
func TestWireDecodeCanonicalizesTripleOrder(t *testing.T) {
	inst, err := workload.Metric(workload.MetricSpec{Name: "latency", N: 40, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(inst.Idx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := s.Wire()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	moved := 0
	for u := 0; u < inst.Idx.N(); u++ {
		lab := s.Label(u)
		canon, bits, err := wire.Encode(lab)
		if err != nil {
			t.Fatal(err)
		}
		shuffled := *lab
		shuffled.Trans = make([]LevelMap, len(lab.Trans))
		for i, lm := range lab.Trans {
			var sh LevelMap
			for k, entries := range lm.Lists {
				for _, e := range entries {
					sh.Keys = append(sh.Keys, lm.Keys[k])
					sh.Lists = append(sh.Lists, []TransEntry{e})
				}
			}
			rng.Shuffle(len(sh.Keys), func(a, b int) {
				sh.Keys[a], sh.Keys[b] = sh.Keys[b], sh.Keys[a]
				sh.Lists[a], sh.Lists[b] = sh.Lists[b], sh.Lists[a]
			})
			shuffled.Trans[i] = sh
		}
		scrambled, sbits, err := wire.Encode(&shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if sbits != bits {
			t.Fatalf("node %d: shuffled form is %d bits, canonical %d", u, sbits, bits)
		}
		if !bytes.Equal(scrambled, canon) {
			moved++
		}
		want, err := wire.Decode(canon, bits)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.Decode(scrambled, sbits)
		if err != nil {
			t.Fatalf("node %d: shuffled triples: %v", u, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: shuffled triples decode to a different label", u)
		}
		again, _, err := wire.Encode(got)
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("node %d: shuffled label re-encodes to other bytes (%v)", u, err)
		}
	}
	if moved == 0 {
		t.Fatal("no shuffle moved a triple: the test cannot tell orders apart")
	}
}

// rawWireLabel writes a wire label field by field, valid or not: hostSize
// exact-zero distance slots, the zoom root, the zoom pointers, then the
// first level's claimed triple count and triples; every later level is
// empty.
func rawWireLabel(t *testing.T, wr Wire, hostSize int, zoom0 uint64, psi []uint64, count uint64, triples [][3]uint64) ([]byte, int) {
	t.Helper()
	hostW, psiW := bitio.WidthFor(hostSize), bitio.WidthFor(wr.MaxT)
	var w bitio.Writer
	put := func(v uint64, width int) {
		if err := w.WriteBits(v, width); err != nil {
			t.Fatal(err)
		}
	}
	put(uint64(hostSize), wireHostW)
	for h := 0; h < hostSize; h++ {
		put(1, 1)
	}
	put(zoom0, hostW)
	for _, p := range psi {
		put(p, psiW)
	}
	for level := 0; level < wr.IMax; level++ {
		if level > 0 {
			put(0, 32)
			continue
		}
		put(count, 32)
		for _, tr := range triples {
			put(tr[0], hostW)
			put(tr[1], psiW)
			put(tr[2], hostW)
		}
	}
	return w.Bytes(), w.Len()
}

// TestWireDecodeRefusesOutOfRange: every index Decode reads must fit
// what it indexes even where its field is wide enough for more (3 hosts
// and MaxT 3 take two bits each), and a triple count must fit the keys
// and bits that could hold it — with zero-width fields nothing else
// bounds the decode loop.
func TestWireDecodeRefusesOutOfRange(t *testing.T) {
	wr := Wire{IMax: 2, MaxT: 3, Level0Count: 2}
	tiny := Wire{IMax: 1, MaxT: 1, Level0Count: 1} // 1 host, MaxT 1: every index field is 0 bits
	for _, tc := range []struct {
		name     string
		wr       Wire
		hosts    int
		zoom0    uint64
		psi      []uint64
		count    uint64
		triples  [][3]uint64
		accepted bool
	}{
		{"valid", wr, 3, 1, []uint64{2, 0}, 1, [][3]uint64{{0, 2, 1}}, true},
		{"valid-tiny", tiny, 1, 0, []uint64{0}, 1, [][3]uint64{{0, 0, 0}}, true},
		{"key-past-hosts", wr, 3, 1, []uint64{2, 0}, 1, [][3]uint64{{3, 2, 1}}, false},
		{"target-past-hosts", wr, 3, 1, []uint64{2, 0}, 1, [][3]uint64{{0, 2, 3}}, false},
		{"virtual-index-past-maxt", wr, 3, 1, []uint64{2, 0}, 1, [][3]uint64{{0, 3, 1}}, false},
		{"zoom-root-past-prefix", wr, 3, 2, []uint64{2, 0}, 1, [][3]uint64{{0, 2, 1}}, false},
		{"zoom-root-past-hosts", wr, 3, 3, []uint64{2, 0}, 1, [][3]uint64{{0, 2, 1}}, false},
		{"zoom-pointer-past-maxt", wr, 3, 1, []uint64{2, 3}, 1, [][3]uint64{{0, 2, 1}}, false},
		{"count-past-keys", tiny, 1, 0, []uint64{0}, 1 << 20, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf, bits := rawWireLabel(t, tc.wr, tc.hosts, tc.zoom0, tc.psi, tc.count, tc.triples)
			lab, err := tc.wr.Decode(buf, bits)
			if (err == nil) != tc.accepted {
				t.Fatalf("Decode = %v, want accepted %v", err, tc.accepted)
			}
			if err == nil {
				Estimate(lab, lab)
			}
		})
	}
	// A bit count past the buffer is refused before anything is read.
	buf, bits := rawWireLabel(t, wr, 3, 1, []uint64{2, 0}, 1, [][3]uint64{{0, 2, 1}})
	if _, err := wr.Decode(buf[:len(buf)-1], bits); err == nil {
		t.Fatalf("Decode read %d bits out of %d bytes", bits, len(buf)-1)
	}
}

// FuzzWireDecode: whatever the bytes, Decode returns an error or a label
// that re-encodes to a canonical form — bytes that decode and re-encode
// to themselves — and that Estimate walks without a panic, against
// itself and against a built label. The seeds are encoded labels of the
// four families at n = 64 and truncations of them; family picks the
// scheme whose Wire decodes.
func FuzzWireDecode(f *testing.F) {
	type family struct {
		wire  Wire
		label *Label
	}
	var fams []family
	for _, spec := range []workload.MetricSpec{
		{Name: "grid", Side: 8},
		{Name: "cube", N: 64, Seed: 3},
		{Name: "expline", N: 64, LogAspect: 60},
		{Name: "latency", N: 64, Seed: 1},
	} {
		inst, err := workload.Metric(spec)
		if err != nil {
			f.Fatal(err)
		}
		s, err := New(inst.Idx, 0.5)
		if err != nil {
			f.Fatal(err)
		}
		wire, err := s.Wire()
		if err != nil {
			f.Fatal(err)
		}
		fams = append(fams, family{wire, s.Label(0)})
		for _, u := range []int{0, 37} {
			buf, bits, err := wire.Encode(s.Label(u))
			if err != nil {
				f.Fatal(err)
			}
			k := uint8(len(fams) - 1)
			f.Add(k, buf, uint32(bits))
			f.Add(k, buf, uint32(bits-1))
			f.Add(k, buf[:len(buf)/2], uint32(8*(len(buf)/2)))
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, data []byte, bits uint32) {
		fam := fams[int(k)%len(fams)]
		lab, err := fam.wire.Decode(data, int(bits))
		if err != nil {
			return
		}
		canon, cbits, err := fam.wire.Encode(lab)
		if err != nil {
			t.Fatalf("a decoded label does not re-encode: %v", err)
		}
		again, err := fam.wire.Decode(canon, cbits)
		if err != nil {
			t.Fatalf("a re-encoded label does not decode: %v", err)
		}
		if buf, nb, err := fam.wire.Encode(again); err != nil || nb != cbits || !bytes.Equal(buf, canon) {
			t.Fatalf("re-encoded bytes are not canonical (%v)", err)
		}
		Estimate(lab, lab)
		Estimate(lab, fam.label)
		Estimate(fam.label, lab)
	})
}

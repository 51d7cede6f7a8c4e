package distlabel

import (
	"math"
	"math/rand"
	"testing"

	"rings/internal/metric"
)

func TestWireRoundtripStructure(t *testing.T) {
	g, err := metric.NewGrid(5, 2, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	idx := metric.NewIndex(g)
	s, err := New(idx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := s.Wire()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < idx.N(); u++ {
		lab := s.Label(u)
		buf, bits, err := wire.Encode(lab)
		if err != nil {
			t.Fatalf("encode %d: %v", u, err)
		}
		want, err := s.LabelBits(u)
		if err != nil {
			t.Fatal(err)
		}
		zeroSlots := 0
		for _, d := range lab.Dists {
			if d == 0 {
				zeroSlots++
			}
		}
		expect := want + wireHostW + len(lab.Dists) - zeroSlots*wire.Codec.Bits()
		if bits != expect {
			t.Fatalf("node %d: wire %d bits, want %d", u, bits, expect)
		}
		got, err := wire.Decode(buf, bits)
		if err != nil {
			t.Fatalf("decode %d: %v", u, err)
		}
		// Structure survives exactly; distances within codec round-up.
		if got.Zoom0 != lab.Zoom0 || len(got.ZoomPsi) != len(lab.ZoomPsi) ||
			len(got.Dists) != len(lab.Dists) || got.Level0Count != lab.Level0Count {
			t.Fatalf("node %d: structure mismatch", u)
		}
		for i := range lab.ZoomPsi {
			if got.ZoomPsi[i] != lab.ZoomPsi[i] {
				t.Fatalf("node %d: zoom pointer %d mismatch", u, i)
			}
		}
		eps := math.Pow(2, -float64(wire.Codec.MantissaBits))
		for h, d := range lab.Dists {
			dd := got.Dists[h]
			if d == 0 {
				if dd > idx.MinDistance() {
					t.Fatalf("node %d: self slot decoded to %v", u, dd)
				}
				continue
			}
			if dd < d || dd > d*(1+eps) {
				t.Fatalf("node %d slot %d: distance %v decoded to %v", u, h, d, dd)
			}
		}
		for level := range lab.Trans {
			lm := lab.Trans[level]
			for k, entries := range lm.Lists {
				x := lm.Keys[k]
				for _, e := range entries {
					if gotZ := got.Translate(level, int(x), e.Y); gotZ != int(e.Z) {
						t.Fatalf("node %d level %d: ζ(%d,%d) = %d after decode, want %d",
							u, level, x, e.Y, gotZ, e.Z)
					}
				}
			}
		}
	}
}

// Estimates from decoded labels keep the paper's usable guarantee: D+ is
// a (1+δ)(1+codec) upper bound on the true distance (footnote 11: D−
// does not survive encoding and is not asserted).
func TestWireDecodedEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	idx := metric.NewIndex(metric.UniformCube(50, 2, 100, rng))
	delta := 0.5
	s, err := New(idx, delta)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := s.Wire()
	if err != nil {
		t.Fatal(err)
	}
	decoded := make([]*Label, idx.N())
	for u := range decoded {
		buf, bits, err := wire.Encode(s.Label(u))
		if err != nil {
			t.Fatal(err)
		}
		if decoded[u], err = wire.Decode(buf, bits); err != nil {
			t.Fatal(err)
		}
	}
	codecEps := math.Pow(2, -float64(wire.Codec.MantissaBits))
	slack := (1 + delta) * (1 + codecEps) * (1 + 1e-9)
	for u := 0; u < idx.N(); u++ {
		for v := u + 1; v < idx.N(); v++ {
			_, hi, ok := Estimate(decoded[u], decoded[v])
			if !ok {
				t.Fatalf("pair (%d,%d): no common neighbor after decode", u, v)
			}
			d := idx.Dist(u, v)
			if hi < d*(1-1e-9) {
				t.Fatalf("pair (%d,%d): D+ %v below true %v", u, v, hi, d)
			}
			if hi > d*slack {
				t.Fatalf("pair (%d,%d): D+ %v exceeds (1+δ)(1+codec)·d = %v", u, v, hi, d*slack)
			}
		}
	}
}

func TestWireDecodeRejectsGarbage(t *testing.T) {
	g, _ := metric.NewGrid(3, 2, metric.L2)
	s, err := New(metric.NewIndex(g), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := s.Wire()
	if err != nil {
		t.Fatal(err)
	}
	buf, bits, err := wire.Encode(s.Label(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Decode(buf, bits-8); err == nil {
		t.Error("decode accepted a truncated label")
	}
	if _, err := wire.Decode(buf[:1], 8); err == nil {
		t.Error("decode accepted a tiny buffer")
	}
}

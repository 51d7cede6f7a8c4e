package oracle

import (
	"math"
	"testing"

	"rings/internal/distlabel"
)

// visited replays one direction of the zoom walk (u's sequence, or v's
// when fromV) and returns the span pair of each level it gets to harvest.
func (f *FlatSnap) visited(u, v int, fromV bool) []spanPair {
	var out []spanPair
	mine := u
	if fromV {
		mine = v
	}
	hu := f.zoom0[mine]
	hv := hu
	psi := f.psi[f.psiOff[mine]:f.psiOff[mine+1]]
	gU, gV := int(f.levOff[u]), int(f.levOff[v])
	for i := 0; i < len(psi) && gU+i < int(f.levOff[u+1]) && gV+i < int(f.levOff[v+1]); i++ {
		var p spanPair
		p.us, p.ue = f.span(gU+i, hu)
		p.vs, p.ve = f.span(gV+i, hv)
		out = append(out, p)
		hu, hv = f.zoomHost(p.us, p.ue, psi[i]), f.zoomHost(p.vs, p.ve, psi[i])
		if hu < 0 || hv < 0 {
			break
		}
	}
	return out
}

// TestWalkMeetsEveryKindOfLevel: the all-pairs identity test is only as
// good as the levels its arenas put direction v→u through. Over
// flatConfigs() that direction meets a level whose span pair direction
// u→v already harvested (the skip), a level u→v harvested with another
// pair (only where a group stores several lists) and a level u→v never
// reached — and the benchmark-shaped arena, every group of which shares
// one list, has the first and the last on its own.
func TestWalkMeetsEveryKindOfLevel(t *testing.T) {
	type counts struct{ shared, several, repeated, other, unreached int }
	var total counts
	for _, cfg := range flatConfigs() {
		if cfg.Scheme == SchemeBeacons {
			continue
		}
		snap, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Workload, err)
		}
		f := snap.Flat
		var c counts
		for g := 0; g+1 < len(f.xkOff); g++ {
			lists := map[[2]int32]bool{}
			for k := f.xkOff[g]; k < f.xkOff[g+1]; k++ {
				lists[[2]int32{f.entSpan[2*k], f.entSpan[2*k+1]}] = true
			}
			if len(lists) == 1 {
				c.shared++
			} else if len(lists) > 1 {
				c.several++
			}
		}
		for u := 0; u < f.n; u++ {
			for v := 0; v < f.n; v++ {
				first := f.visited(u, v, false)
				for i, p := range f.visited(u, v, true) {
					switch {
					case i >= len(first):
						c.unreached++
					case first[i] == p:
						c.repeated++
					default:
						c.other++
					}
				}
			}
		}
		t.Logf("%s n=%d: %+v", cfg.Workload, f.n, c)
		if cfg.Profile == ProfileTuned && (c.repeated == 0 || c.unreached == 0) {
			t.Errorf("benchmark-shaped arena: %+v, want repeated and unreached levels", c)
		}
		total.shared += c.shared
		total.several += c.several
		total.repeated += c.repeated
		total.other += c.other
		total.unreached += c.unreached
	}
	if total.shared == 0 || total.several == 0 || total.repeated == 0 || total.other == 0 || total.unreached == 0 {
		t.Errorf("over all configs: %+v, want every count positive", total)
	}
}

// TestSkipComparesWholeSpans: in a hand-edited arena every other key of a
// group keeps only the head of the list its neighbors share — same start,
// earlier end, still valid — so the two directions meet span pairs that
// agree in their starts alone. The flat walk must harvest those (only a
// pair equal at both ends of both spans is a repeat) and answer exactly
// what the pointer walk answers over the labels the arena materializes.
func TestSkipComparesWholeSpans(t *testing.T) {
	snap, err := BuildSnapshot(Config{Workload: "latency", N: 64, Seed: 1, Delta: 0.5, Profile: ProfileTuned, SkipRouting: true, SkipOverlay: true})
	if err != nil {
		t.Fatal(err)
	}
	f := snap.Flat
	cut := 0
	for k := 1; k < len(f.xkeys); k += 2 {
		if s, e := f.entSpan[2*k], f.entSpan[2*k+1]; e-s > 1 && f.entSpan[2*k-2] == s {
			f.entSpan[2*k+1] = s + 1
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("no key shares its list with its neighbor: nothing to cut")
	}
	if err := f.validate(); err != nil {
		t.Fatalf("edited arena does not validate: %v", err)
	}
	labels := f.materializeLabels()
	sameStart := 0
	for u := 0; u < f.n; u++ {
		for v := 0; v < f.n; v++ {
			first, second := f.visited(u, v, false), f.visited(u, v, true)
			for i, p := range second {
				if i < len(first) && first[i] != p && first[i].us == p.us && first[i].vs == p.vs {
					sameStart++
				}
			}
			lo, up, ok := distlabel.Estimate(labels[u], labels[v])
			flo, fup, fok := f.estimatePair(u, v)
			if ok != fok || math.Float64bits(lo) != math.Float64bits(flo) || math.Float64bits(up) != math.Float64bits(fup) {
				t.Fatalf("estimate(%d,%d): pointer walk (%v, %v, %v), flat walk (%v, %v, %v)", u, v, lo, up, ok, flo, fup, fok)
			}
		}
	}
	if sameStart == 0 {
		t.Fatal("no level where the directions' span pairs share their starts and differ in an end")
	}
}

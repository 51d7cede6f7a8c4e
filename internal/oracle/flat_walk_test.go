package oracle

import (
	"math"
	"slices"
	"testing"

	"rings/internal/distlabel"
)

// keySpan resolves key x of node u's level-i group the way the walk
// resolves other's side.
func (f *FlatSnap) keySpan(u, i int, x int32) (start, end int32) {
	return f.span(int(f.psiOff[u])+i, f.groupBits(u, i), x)
}

// visited replays one direction of the zoom walk (u's sequence, or v's
// when fromV) searching both sides — no chain — and returns the span pair
// of each level it gets to harvest.
func (f *FlatSnap) visited(u, v int, fromV bool) []spanPair {
	var out []spanPair
	mine := u
	if fromV {
		mine = v
	}
	hu := f.zoom0[mine]
	hv := hu
	psi := f.psi[f.psiOff[mine]:f.psiOff[mine+1]]
	for i := 0; i < len(psi) && i < int(f.psiOff[u+1]-f.psiOff[u]) && i < int(f.psiOff[v+1]-f.psiOff[v]); i++ {
		var p spanPair
		p.us, p.ue = f.keySpan(u, i, hu)
		p.vs, p.ve = f.keySpan(v, i, hv)
		out = append(out, p)
		hu, hv = f.zoomHost(p.us, p.ue, psi[i]), f.zoomHost(p.vs, p.ve, psi[i])
		if hu < 0 || hv < 0 {
			break
		}
	}
	return out
}

// TestChainIsTheSearchedWalk: every node's chain holds what searching its
// own label along its zooming sequence finds — the span of each level's
// key and the host it zooms to — up to where that search stops.
func TestChainIsTheSearchedWalk(t *testing.T) {
	for _, cfg := range flatConfigs() {
		snap, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Workload, err)
		}
		f := snap.Flat
		for u := 0; u < f.n; u++ {
			h := f.zoom0[u]
			for i := 0; i < int(f.psiOff[u+1]-f.psiOff[u]) && h >= 0; i++ {
				g := int(f.psiOff[u]) + i
				s, e := f.keySpan(u, i, h)
				next := f.zoomHost(s, e, f.psi[g])
				if got := [3]int32(f.chain[3*g : 3*g+3]); got != [3]int32{s, e, next} {
					t.Fatalf("%s: node %d level %d: chain %v, searched walk %v", cfg.Workload, u, i, got, [3]int32{s, e, next})
				}
				h = next
			}
		}
	}
}

// TestWalkMeetsEveryKindOfLevel: the all-pairs identity test is only as
// good as the levels its arenas put direction v→u through. Over
// flatConfigs() that direction meets a level whose span pair direction
// u→v already harvested (the skip), a level u→v harvested with another
// pair (only where a group stores several lists, so some of its keys are
// exceptions to its default span) and a level u→v never reached — and the
// benchmark-shaped arena, every group of which shares one list, has the
// first and the last on its own.
func TestWalkMeetsEveryKindOfLevel(t *testing.T) {
	type counts struct{ shared, several, exceptions, repeated, other, unreached int }
	var total counts
	for _, cfg := range flatConfigs() {
		snap, err := BuildSnapshot(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Workload, err)
		}
		f := snap.Flat
		var c counts
		for u := 0; u < f.n; u++ {
			for i := 0; i < int(f.psiOff[u+1]-f.psiOff[u]); i++ {
				if !slices.ContainsFunc(f.groupBits(u, i), func(w int32) bool { return w != 0 }) {
					continue
				}
				g := int(f.psiOff[u]) + i
				lists := map[[2]int32]bool{{f.grpSpan[2*g], f.grpSpan[2*g+1]}: true}
				for k := f.xcOff[g]; k < f.xcOff[g+1]; k++ {
					lists[[2]int32{f.xcSpan[2*k], f.xcSpan[2*k+1]}] = true
					c.exceptions++
				}
				if len(lists) == 1 {
					c.shared++
				} else {
					c.several++
				}
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
		total.exceptions += c.exceptions
		total.repeated += c.repeated
		total.other += c.other
		total.unreached += c.unreached
	}
	if total.shared == 0 || total.several == 0 || total.exceptions == 0 || total.repeated == 0 || total.other == 0 || total.unreached == 0 {
		t.Errorf("over all configs: %+v, want every count positive", total)
	}
}

// TestSkipComparesWholeSpans: in a hand-edited arena every other key of a
// group is an exception whose span keeps only the head of the group's
// default list — same start, earlier end, still valid — so the two
// directions meet span pairs that agree in their starts alone. The flat
// walk must harvest those (only a pair equal at both ends of both spans
// is a repeat) and answer exactly what the pointer walk answers over the
// labels the arena materializes.
func TestSkipComparesWholeSpans(t *testing.T) {
	snap, err := BuildSnapshot(Config{Workload: "latency", N: 64, Seed: 1, Delta: 0.5, Profile: ProfileTuned, SkipOverlay: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every other key of a group gets the head of its list: those keys
	// become the group's exceptions, sharing one separately stored list.
	labels := unshared(snap.Labels)
	for _, lab := range labels {
		for _, lm := range lab.Trans {
			for k := 1; k < len(lm.Keys); k += 2 {
				if entries := lm.Lists[k]; len(entries) > 1 {
					lm.Lists[k] = entries[:1]
				}
			}
		}
	}
	f := pack(t, labels)
	// Point each exception into the default list instead.
	cut := 0
	for g := 0; g < len(f.psi); g++ {
		s, e := f.grpSpan[2*g], f.grpSpan[2*g+1]
		for k := f.xcOff[g]; k < f.xcOff[g+1]; k++ {
			xs, xe := f.xcSpan[2*k], f.xcSpan[2*k+1]
			if e-s > 1 && xe-xs == 1 && f.ents[2*s] == f.ents[2*xs] && f.ents[2*s+1] == f.ents[2*xs+1] {
				f.xcSpan[2*k], f.xcSpan[2*k+1] = s, s+1
				if f.chain[3*g] == xs && f.chain[3*g+1] == xe {
					f.chain[3*g], f.chain[3*g+1] = s, s+1
				}
				cut++
			}
		}
	}
	if cut == 0 {
		t.Fatal("no exception holds the head of its group's default list: nothing to cut")
	}
	if err := f.validate(); err != nil {
		t.Fatalf("edited arena does not validate: %v", err)
	}
	labels = f.materializeLabels()
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

package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 4})
	if s.Count != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P50 != 2 {
		t.Errorf("P50 = %v", s.P50)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestSummarizeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if x == x && x < 1e300 && x > -1e300 { // drop NaN/Inf noise
				clean = append(clean, x)
			}
		}
		s := Summarize(clean)
		if len(clean) == 0 {
			return s.Count == 0
		}
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("scheme", "bits", "stretch")
	tb.AddRow("thm2.1", 1234, 1.25)
	tb.AddRow("full", 99999, 1.0)
	out := tb.String()
	if !strings.Contains(out, "| thm2.1") || !strings.Contains(out, "| 1.250") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("want 4 lines, got %d", len(lines))
	}
	// All rows share the same width.
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Errorf("misaligned row: %q vs %q", l, lines[0])
		}
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		2:       "2",
		2.5:     "2.500",
		1e-9:    "1e-09",
		3200000: "3.2e+06",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

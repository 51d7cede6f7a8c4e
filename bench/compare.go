package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &bf, nil
}

// loadRecords reads the untraced result records of a -out file, as
// values[workload][metric].
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if r.Trace {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v)
		}
	}
	return values, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the rule the
// benchmark's acceptance uses).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := i*m - j*4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(quart(3)-quart(1), quart(2))
}

// runCompare prints, per workload and end-to-end metric, both sets'
// medians and spreads, how much worse the second is and the bound, and
// returns the number of breaches: a bound exceeded by the second median,
// or by either set's own spread (a metric that does not repeat within its
// bound cannot be gated by it; setup_s is exempt from the spread rule).
func runCompare(args []string) (int, error) {
	if len(args) != 2 {
		return 0, errors.New("usage: go run ./bench -compare a.jsonl b.jsonl")
	}
	root, err := repoRoot()
	if err != nil {
		return 0, err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return 0, err
	}
	a, err := loadRecords(args[0])
	if err != nil {
		return 0, err
	}
	b, err := loadRecords(args[1])
	if err != nil {
		return 0, err
	}
	breaches := 0
	fmt.Printf("%-14s %-20s %12s %7s %12s %7s %8s %6s\n", "workload", "metric", "a median", "spread", "b median", "spread", "worse", "bound")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-20s missing from one set\n", w.Name, m.Name)
				breaches++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			mark := ""
			if worse > m.Bound {
				mark = "  BREACH"
				breaches++
			} else if m.Name != "setup_s" && max(sa, sb) > m.Bound {
				mark = "  UNSTEADY"
				breaches++
			}
			fmt.Printf("%-14s %-20s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%%s\n",
				w.Name, m.Name, ma, 100*sa, mb, 100*sb, 100*worse, 100*m.Bound, mark)
		}
	}
	return breaches, nil
}

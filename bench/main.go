// Command bench is the repository's benchmark: it builds cmd/ringsrv,
// runs it as a subprocess on loopback, drives one workload against it
// over two keep-alive connections from a seeded generator, verifies
// every answer against its own copy of the ground truth, and prints every
// metric by name and unit. The last line of standard output is the
// result object BENCHMARK.json's contract describes. See README.md.
//
//	go run ./bench -workload point-uniform -seed 1 -seconds 21 -trace 0
//	go run ./bench -workload batch-warm -seed 7 -seconds 21 -trace 1
//	go run ./bench -compare bench/out/a.jsonl bench/out/b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Int64("seed", 1, "query-stream seed (the dataset seed is fixed)")
		seconds = flag.Int("seconds", 21, "measured seconds: two thirds closed loop, one third paced")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		out     = flag.String("out", "", "append this run's result record to a JSON-lines file")
		compare = flag.Bool("compare", false, "compare two -out files (arguments: a.jsonl b.jsonl) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		breaches, err := runCompare(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if breaches > 0 {
			fmt.Printf("%d breach(es)\n", breaches)
			return 1
		}
		fmt.Println("every end-to-end metric within its bound")
		return 0
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 3 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: go run ./bench -workload <%s> -seed N -seconds S -trace 0|1 [-out file]\n", strings.Join(workloadNames(), "|"))
		return 2
	}

	if err := measure(w, *seed, *seconds, *trace != 0, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// measure makes one run and prints its report, the result line last.
// Every return goes through the run's deferred clean-up (server group
// killed and reaped, temp files removed); a signal cancels ctx and takes
// the same path.
func measure(w *workload, seed int64, seconds int, traced bool, out string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx)
	if err != nil {
		return err
	}
	run, defs := runWorkload, endToEnd
	if traced {
		run, defs = runTraced, perLayer
	}
	res, err := run(ctx, e, w, fullScale(seconds), seed)
	if err != nil {
		return err
	}
	line, err := resultLine(res, defs)
	if err != nil {
		return err
	}
	printReport(res, defs)
	if out != "" {
		if err := appendRecord(out, res); err != nil {
			return err
		}
	}
	fmt.Println(line)
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// printReport is the human-readable part of the output.
func printReport(res *result, defs []metricDef) {
	fmt.Printf("workload %s  seed %d  trace %v\n", res.Workload, res.Seed, res.Trace)
	keys := make([]string, 0, len(res.Env))
	for k := range res.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-14s %s\n", k, res.Env[k])
	}
	for _, d := range defs {
		dir := "lower is better"
		if d.higher {
			dir = "higher is better"
		}
		fmt.Printf("  %-34s %14.4f %-6s (%s)\n", d.name, res.Metrics[d.name], d.unit, dir)
	}
	fmt.Printf("  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// resultLine renders the contract's result object: exactly the keys
// correct, attempted, failed and metrics, with one {value, unit} per
// metric of the list that matches the run's mode.
func resultLine(res *result, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]mv, len(defs))}
	for _, d := range defs {
		line.Metrics[d.name] = mv{res.Metrics[d.name], d.unit}
	}
	raw, err := json.Marshal(line)
	return string(raw), err
}

func appendRecord(path string, res *result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command ringbench regenerates every table and figure of the paper's
// evaluation on synthetic doubling workloads, printing the measurements
// as markdown tables. EXPERIMENTS.md is produced from its output:
//
//	ringbench -exp all -seed 1
//
// Individual experiments (comma-separated): substrates table1 table2
// table3 tri dls sw-a sw-b sw-single sw-ul figure1 figure2, which 'all'
// runs in that order, plus fault (the replicated fleet's kill window;
// not part of 'all'). Serving performance is measured by ringperf
// (go run ./bench), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rings/internal/metric"
	"rings/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		os.Exit(1)
	}
}

// Flags the fault experiment reads (package-level plain values so the
// experiment table's uniform func(seed, quick) signature stays intact
// and tests can call expFault without flag parsing).
var (
	jsonOut  bool
	faultOut = "BENCH_fault.json"
	// benchBackend/benchWorkers mirror -backend/-workers into the fault
	// experiment's fleet config ("" means the oracle default, eager).
	benchBackend string
	benchWorkers int
)

// paperOrder is what -exp all runs: E1-E10 and F1-F2 of DESIGN.md §3,
// in EXPERIMENTS.md's order.
var paperOrder = []string{
	"substrates", "table1", "table2", "table3", "tri", "dls",
	"sw-a", "sw-b", "sw-single", "sw-ul", "figure1", "figure2",
}

// experiments is the one experiment table: -exp resolves against it and
// TestAllExperimentsQuick ranges over it.
var experiments = map[string]func(seed int64, quick bool) error{
	"fault":      expFault,
	"table1":     expTable1,
	"table2":     expTable2,
	"table3":     expTable3,
	"tri":        expTriangulation,
	"dls":        expDistanceLabels,
	"sw-a":       expSmallWorldA,
	"sw-b":       expSmallWorldB,
	"sw-single":  expSingleLink,
	"sw-ul":      expULComparison,
	"substrates": expSubstrates,
	"figure1":    expFigure1,
	"figure2":    expFigure2,
}

func run() error {
	var (
		exp     = flag.String("exp", "all", "experiments to run (comma-separated, or 'all')")
		seed    = flag.Int64("seed", 1, "base random seed")
		quick   = flag.Bool("quick", false, "smaller instances (CI mode)")
		backend = flag.String("backend", "eager", "ball-index backend: eager (parallel full sort) or lazy (memory-bounded)")
		workers = flag.Int("workers", 0, "index build/scan parallelism for every instance (0 = GOMAXPROCS)")
	)
	flag.BoolVar(&jsonOut, "json", false, "fault experiment: also write its row as JSON to -faultout")
	flag.StringVar(&faultOut, "faultout", faultOut, "output path for the -json fault row")
	flag.Parse()

	opts := metric.Options{Workers: *workers}
	switch *backend {
	case "eager":
		opts.Backend = metric.Eager
	case "lazy":
		opts.Backend = metric.Lazy
	default:
		return fmt.Errorf("unknown -backend %q (want eager or lazy)", *backend)
	}
	workload.SetIndexOptions(opts)
	benchBackend, benchWorkers = *backend, *workers

	names := paperOrder
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		f, ok := experiments[name]
		if !ok {
			valid := make([]string, 0, len(experiments))
			for k := range experiments {
				valid = append(valid, k)
			}
			sort.Strings(valid)
			return fmt.Errorf("unknown experiment %q (valid: %s, or 'all')", name, strings.Join(valid, " "))
		}
		if err := f(*seed, *quick); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
	}
	return nil
}

func section(title string) {
	fmt.Printf("\n### %s\n\n", title)
}

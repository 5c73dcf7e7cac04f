// Command afqbench is the repository's benchmark: it boots real
// afqserver and afqrouter processes from one generated corpus, drives
// one of four named workloads at them over loopback, checks the
// answers, and prints every metric by name and unit. bench/README.md
// describes the workloads and metrics; BENCHMARK.json declares them.
//
//	afqbench --workload hot_zipf --seed 1 --seconds 20 --trace 0   one run, end-to-end metrics
//	afqbench --workload hot_zipf --seed 1 --seconds 20 --trace 1   one traced run, per-layer metrics
//	afqbench -set -out results.json                                every workload, ten untraced runs and a traced one
//	afqbench -compare old.json new.json                            regression table of two sets
//	afqbench -decl                                                 the BENCHMARK.json declaring all this
//
// A run's last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// logw receives progress lines; standard output is kept for results.
var logw io.Writer = os.Stderr

// What a run measures is fixed here, not on the command line: two result
// sets are comparable because none of it can differ between them. Only
// the tests run smaller.
const (
	// benchScale is the dblptop scale factor of the corpus. The
	// mechanism thresholds and the sizes in bench/README.md hold at 1.0.
	benchScale = 1.0
	// setupsPerRun is how many times an untraced run sets the system up;
	// setup_s is the median.
	setupsPerRun = 3
	// setRuns is the number of untraced runs per workload in a set, on
	// seeds -seed, -seed+1, …
	setRuns = 10
)

// defaultConfig is the benchmark as the driver runs it: one closed-loop
// connection per CPU.
func defaultConfig() config {
	return config{scale: benchScale, clients: runtime.NumCPU(), setups: setupsPerRun}
}

func main() {
	cfg := defaultConfig()
	var (
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics")
		set     = flag.Bool("set", false, "run a whole result set: every workload, ten untraced runs and one traced run each")
		out     = flag.String("out", "", "file a set is written to (default <out-dir>/results.json)")
		compare = flag.Bool("compare", false, "compare two result sets: afqbench -compare old.json new.json")
		decl    = flag.Bool("decl", false, "print the BENCHMARK.json that declares this benchmark and exit")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hot_zipf, cold_uniform, session_feedback or fleet_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request sequence (the corpus is fixed)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding the afqserver and afqrouter binaries")
	flag.StringVar(&cfg.tmpDir, "tmp", ".bench_build/tmp", "directory for snapshots and profile stores")
	flag.StringVar(&cfg.outDir, "out-dir", "bench/out", "directory for span files and result sets")
	flag.Parse()
	cfg.trace = *trace != 0

	// A signal takes the children down with the benchmark.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAllProcs()
		os.Exit(130)
	}()

	var err error
	switch {
	case *decl:
		err = printDeclaration(cfg.seconds)
	case *compare:
		err = compareMain(flag.Args())
	case *set:
		err = setMain(cfg, *out)
	default:
		err = runMain(cfg)
	}
	killAllProcs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "afqbench:", err)
		os.Exit(1)
	}
}

func runMain(cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	r, err := runOnce(cfg)
	if err != nil {
		return err
	}
	if err := printResult(r); err != nil {
		return err
	}
	if !r.Correct {
		// The result has been printed; the exit code says the same.
		return fmt.Errorf("run is not correct: %d of %d operations failed, %d note(s)", r.Failed, r.Attempted, len(r.Notes))
	}
	return nil
}

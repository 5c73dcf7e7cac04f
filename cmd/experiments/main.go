// Command experiments regenerates the paper's evaluation tables and
// figures (Section 6) on the synthetic stand-in datasets.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,figure11 -scale 0.2
//
// Experiments: table1, table2, table3, figure10, figure11, figure12,
// figure13, figure14, figure15, figure16, figure17, and the
// extensions "active" (active vs passive feedback selection),
// "baselines" (ObjectRank2 vs ObjectRank vs HITS vs TSPR) and
// "scalability" (times vs graph scale). Scale 1.0 regenerates at the
// paper's dataset sizes (slow); the default scale depends on the
// experiment family.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"authorityflow/internal/experiments"
)

var runners = []struct {
	name string
	run  func(experiments.Config) error
}{
	{"table1", wrap(experiments.Table1)},
	{"table2", wrap(experiments.Table2)},
	{"table3", wrap(experiments.Table3)},
	{"figure10", wrap(experiments.Figure10)},
	{"figure11", wrap(experiments.Figure11)},
	{"figure12", wrap(experiments.Figure12)},
	{"figure13", wrap(experiments.Figure13)},
	{"figure14", wrap(experiments.Figure14)},
	{"figure15", wrap(experiments.Figure15)},
	{"figure16", wrap(experiments.Figure16)},
	{"figure17", wrap(experiments.Figure17)},
	{"active", wrap(experiments.ExtensionActiveFeedback)},
	{"baselines", wrap(experiments.ExtensionBaselines)},
	{"scalability", wrap(experiments.ExtensionScalability)},
	{"implicit", wrap(experiments.ExtensionImplicitFeedback)},
}

func wrap[T any](f func(experiments.Config) (T, error)) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		_, err := f(cfg)
		return err
	}
}

func main() {
	var (
		run    = flag.String("run", "all", "comma-separated experiment names, or 'all'")
		scale  = flag.Float64("scale", 0, "dataset scale; 0 uses each experiment's default")
		seed   = flag.Int64("seed", 0, "seed offset for variance studies")
		csvDir = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
	)
	flag.Parse()

	want := map[string]bool{}
	all := *run == "all"
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Out: os.Stdout}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		cfg.CSVDir = *csvDir
	}
	ran := 0
	for _, r := range runners {
		if !all && !want[r.name] {
			continue
		}
		ran++
		start := time.Now()
		if err := r.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %s]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing matched -run=%s\n", *run)
		os.Exit(2)
	}
}

// Command datagen generates the synthetic datasets standing in for the
// paper's evaluation corpora and writes them as binary corpus snapshots
// (graph, rates and built index) — what afq -snap and afqserver
// -snapshot load.
//
// Usage:
//
//	datagen -dataset dblptop -scale 0.1 -out dblptop.snap
//
// Datasets: the four corpora of the paper's Table 1 and the link-free
// linkless family (-h lists them). -scale shrinks all entity counts
// proportionally; -seed controls determinism.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"authorityflow"
)

func main() {
	var (
		dataset = flag.String("dataset", "dblptop", "dataset preset: "+strings.Join(authorityflow.PresetNames(), ", "))
		scale   = flag.Float64("scale", 1.0, "scale factor for all entity counts")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output snapshot path (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	ds, err := generate(*dataset, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	if err := authorityflow.SaveDatasetFile(*out, ds); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	g := ds.Graph
	fmt.Printf("%s: %d nodes, %d edges, %.1f MB -> %s\n",
		ds.Name, g.NumNodes(), g.NumEdges(), float64(g.SizeBytes())/(1<<20), *out)
}

func generate(name string, scale float64, seed int64) (*authorityflow.Dataset, error) {
	return authorityflow.GeneratePreset(name, scale, seed)
}

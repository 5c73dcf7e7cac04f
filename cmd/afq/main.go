// Command afq runs authority-flow queries, explains results, and
// reformulates queries from feedback — the command-line counterpart of
// the paper's deployed ObjectRank2 system.
//
// Usage:
//
//	afq [-snap corpus.snap | -gen dblptop -scale 0.1] query olap
//	afq ... [-dot out.dot] [-json out.json] explain "olap" 1234
//	afq ... [-mode structure|content|both] feedback "olap" 1234,5678
//	afq ... snapshot out.snap
//
// (Flags precede the subcommand, per Go flag-package convention.)
//
// query prints the top-k ObjectRank2 results. explain builds and prints
// the explaining subgraph of node 1234 with its top authority-flow
// paths. feedback treats the listed nodes as relevant feedback and
// prints the reformulated query vector and authority transfer rates.
//
// The snapshot subcommand writes the versioned binary corpus snapshot
// (frozen CSR graph + inverted index, checksummed sections) — the one
// corpus file format, also what datagen writes and afqserver -snapshot
// cold-starts from without rebuilding anything. -snap loads such a
// snapshot for any subcommand, skipping the index build.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"authorityflow"
)

const usage = `usage: afq [flags] <subcommand> <args>
  query <keywords>
  explain <keywords> <node>
  feedback <keywords> <node,node,...>
  snapshot <out.snap>
flags (before the subcommand):`

func main() {
	var (
		snapF     = flag.String("snap", "", "binary corpus snapshot to load (skips graph building and indexing)")
		schema    = flag.String("schema", "", "schema JSON for TSV import (with -nodes and -edges)")
		nodesF    = flag.String("nodes", "", "nodes TSV for import")
		edgesF    = flag.String("edges", "", "edges TSV for import")
		gen       = flag.String("gen", "dblptop", "dataset preset to generate when neither -snap nor -schema is given: "+strings.Join(authorityflow.PresetNames(), ", "))
		scale     = flag.Float64("scale", 0.1, "scale factor when generating")
		k         = flag.Int("k", 10, "number of results")
		dot       = flag.String("dot", "", "write explaining subgraph as Graphviz DOT to this path")
		jsonP     = flag.String("json", "", "write explaining subgraph as JSON to this path")
		htmlP     = flag.String("html", "", "write explaining subgraph as a self-contained HTML visualization")
		mode      = flag.String("mode", "structure", "reformulation mode: structure, content, both")
		paths     = flag.Int("paths", 5, "number of top authority-flow paths to print")
		saveRates = flag.String("saverates", "", "after feedback, write the trained rates as JSON to this path")
		loadRates = flag.String("loadrates", "", "load trained rates (JSON) before querying")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, usage)
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "afq: expected a subcommand and its arguments")
		flag.Usage()
		os.Exit(2)
	}

	var ds *authorityflow.Dataset
	var ix *authorityflow.Index
	var err error
	switch {
	case *snapF != "":
		ds, ix, err = authorityflow.LoadCorpusSnapshotFile(*snapF)
	case *schema != "":
		ds, err = authorityflow.ImportTSVFiles(*schema, *nodesF, *edgesF, "")
	default:
		ds, err = authorityflow.GeneratePreset(*gen, *scale, 1)
	}
	if err != nil {
		fail(err)
	}
	if *loadRates != "" {
		r, err := authorityflow.LoadRatesFile(*loadRates, ds.Graph.Schema())
		if err != nil {
			fail(err)
		}
		ds.Rates = r
	}
	var eng *authorityflow.Engine
	if ix != nil {
		corpus, cerr := authorityflow.NewCorpusWithIndex(ds.Graph, ix, authorityflow.Config{})
		if cerr != nil {
			fail(cerr)
		}
		eng, err = authorityflow.NewEngineWith(corpus, ds.Rates)
	} else {
		eng, err = authorityflow.NewEngine(ds.Graph, ds.Rates, authorityflow.Config{})
	}
	if err != nil {
		fail(err)
	}

	pin := eng.Pin()
	switch args[0] {
	case "query":
		q := authorityflow.ParseQuery(strings.Join(args[1:], " "))
		res := solve(pin, q, nil)
		fmt.Printf("query %v: base set %d nodes, %d iterations\n", q, len(res.Base), res.Iterations)
		for i, r := range res.TopK(*k) {
			fmt.Printf("%2d. %.6f  %s\n", i+1, r.Score, ds.Graph.Display(r.Node))
		}

	case "snapshot":
		out := args[1]
		if err := authorityflow.SaveCorpusSnapshotFile(out, ds, pin.Corpus().Index()); err != nil {
			fail(err)
		}
		fi, err := os.Stat(out)
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote binary corpus snapshot %s (%d nodes, %d edges, %.1f MiB)\n",
			out, ds.Graph.NumNodes(), ds.Graph.NumEdges(), float64(fi.Size())/(1<<20))

	case "explain":
		if len(args) < 3 {
			fail(fmt.Errorf("explain needs keywords and a node id"))
		}
		q := authorityflow.ParseQuery(args[1])
		target, err := parseNode(args[2])
		if err != nil {
			fail(err)
		}
		res := solve(pin, q, nil)
		sg, err := pin.ExplainCtx(context.Background(), res, target, authorityflow.DefaultExplain())
		if err != nil {
			fail(err)
		}
		fmt.Printf("explaining %s for query %v\n", ds.Graph.Display(target), q)
		fmt.Printf("subgraph: %d nodes, %d arcs, explained score %.6g (rank score %.6g), %d adjustment iterations\n",
			len(sg.Nodes), len(sg.Arcs), sg.ExplainedScore(), res.Scores[target], sg.Iterations)
		for i, p := range sg.TopPaths(sg.BaseSources(res), *paths) {
			var names []string
			for _, n := range p.Nodes {
				names = append(names, ds.Graph.Display(n))
			}
			fmt.Printf("path %d (flow %.3g): %s\n", i+1, p.Flow, strings.Join(names, " -> "))
		}
		if *dot != "" {
			if err := writeFile(*dot, func(f *os.File) error {
				return authorityflow.ExportSubgraphDOT(f, ds.Graph, sg)
			}); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *dot)
		}
		if *jsonP != "" {
			if err := writeFile(*jsonP, func(f *os.File) error {
				return authorityflow.ExportSubgraphJSON(f, ds.Graph, sg)
			}); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *jsonP)
		}
		if *htmlP != "" {
			if err := writeFile(*htmlP, func(f *os.File) error {
				return authorityflow.ExportSubgraphHTML(f, ds.Graph, sg)
			}); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *htmlP)
		}

	case "feedback":
		if len(args) < 3 {
			fail(fmt.Errorf("feedback needs keywords and node ids"))
		}
		opts, err := authorityflow.ParseStrategy(*mode)
		if err != nil {
			fail(err)
		}
		var ids []authorityflow.NodeID
		for _, part := range strings.Split(args[2], ",") {
			target, err := parseNode(part)
			if err != nil {
				fail(err)
			}
			ids = append(ids, target)
		}
		q := authorityflow.ParseQuery(args[1])
		res := solve(pin, q, nil)
		round, err := pin.FeedbackCtx(context.Background(), q, res, ids, nil, opts)
		if err != nil {
			fail(err)
		}
		ref := round.Reformulation
		fmt.Printf("reformulated query: %v\n", ref.Query)
		if len(ref.Expansion) > 0 {
			fmt.Printf("expansion terms:")
			for _, wt := range ref.Expansion {
				fmt.Printf(" %s(%.3f)", wt.Term, wt.Weight)
			}
			fmt.Println()
		}
		fmt.Printf("reformulated rates: %v\n", ref.Rates)
		if *saveRates != "" {
			if err := authorityflow.SaveRatesFile(*saveRates, ref.Rates); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *saveRates)
		}
		res2 := solve(round.Pin, ref.Query, res.Scores)
		fmt.Println("re-ranked results:")
		for i, r := range res2.TopK(*k) {
			fmt.Printf("%2d. %.6f  %s\n", i+1, r.Score, ds.Graph.Display(r.Node))
		}

	default:
		fmt.Fprintf(os.Stderr, "afq: unknown subcommand %q\n", args[0])
		flag.Usage()
		os.Exit(2)
	}
}

// solve ranks q under pin, warm-started from init when it is given.
func solve(pin *authorityflow.Pinned, q *authorityflow.Query, init []float64) *authorityflow.RankResult {
	spec := authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}}
	if init != nil {
		spec.Inits = [][]float64{init}
	}
	rs, err := pin.Solve(context.Background(), spec)
	if err != nil {
		fail(err)
	}
	return rs[0]
}

func parseNode(s string) (authorityflow.NodeID, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	return authorityflow.NodeID(n), nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "afq: %v\n", err)
	os.Exit(1)
}

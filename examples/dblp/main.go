// DBLP scenario: generate a DBLPtop-scale bibliographic corpus, run the
// paper's Table 2 benchmark queries, inspect explanations, and run one
// structure-based feedback iteration — the workflow of the paper's
// deployed bibliographic demo.
//
// Run: go run ./examples/dblp [-scale 0.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"authorityflow"
)

func main() {
	scale := flag.Float64("scale", 0.1, "dataset scale relative to DBLPtop")
	flag.Parse()

	fmt.Printf("generating DBLPtop at scale %.2f...\n", *scale)
	ds, err := authorityflow.GenerateDBLP(authorityflow.DBLPTopConfig().Scale(*scale))
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	fmt.Printf("%d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())

	eng, err := authorityflow.NewEngine(g, ds.Rates, authorityflow.Config{})
	if err != nil {
		log.Fatal(err)
	}
	// Every read goes through one pinned view of the corpus and rates.
	ctx, pin := context.Background(), eng.Pin()
	paperType, _ := g.Schema().TypeByName("Paper")

	// The paper's Table 2 benchmark queries.
	queries := []string{
		"olap", "query optimization", "xml", "mining",
		"proximity search", "xml indexing", "ranked search",
	}
	for _, raw := range queries {
		q := authorityflow.ParseQuery(raw)
		res := solve(pin, q, nil)
		top := res.TopKOfType(g, paperType, 3)
		fmt.Printf("[%s] base set %d, %d iterations\n", raw, len(res.Base), res.Iterations)
		for i, r := range top {
			marker := " "
			if res.InBase(r.Node) {
				marker = "*" // contains a query keyword itself
			}
			fmt.Printf("  %d.%s %.5f %s\n", i+1, marker, r.Score, clip(g.Attr(r.Node, "Title"), 60))
		}
	}

	// Explain the top "olap" result and show the strongest authority
	// paths into it.
	fmt.Println("\n--- explaining the top [olap] paper ---")
	q := authorityflow.NewQuery("olap")
	res := solve(pin, q, nil)
	top := res.TopKOfType(g, paperType, 1)
	if len(top) == 0 || top[0].Score == 0 {
		log.Fatal("no olap results at this scale; try -scale 0.1 or larger")
	}
	target := top[0].Node
	sg, err := pin.ExplainCtx(ctx, res, target, authorityflow.DefaultExplain())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target: %s\n", clip(g.Attr(target, "Title"), 70))
	fmt.Printf("subgraph: %d nodes, %d arcs; explained score %.4g of rank score %.4g\n",
		len(sg.Nodes), len(sg.Arcs), sg.ExplainedScore(), res.Scores[target])
	for i, p := range sg.TopPaths(sg.BaseSources(res), 3) {
		var hops []string
		for _, n := range p.Nodes {
			hops = append(hops, fmt.Sprintf("%s(%s)", g.LabelName(n), clip(g.Attrs(n)[0].Value, 24)))
		}
		fmt.Printf("  path %d (flow %.3g): %s\n", i+1, p.Flow, strings.Join(hops, " -> "))
	}

	// One structure-based feedback iteration on the top-2 results.
	fmt.Println("\n--- structure-based feedback on the top-2 [olap] papers ---")
	var subs []*authorityflow.Subgraph
	for _, r := range res.TopKOfType(g, paperType, 2) {
		s, err := pin.ExplainCtx(ctx, res, r.Node, authorityflow.DefaultExplain())
		if err != nil {
			log.Fatal(err)
		}
		subs = append(subs, s)
	}
	ref, err := pin.ReformulateWeightedCtx(ctx, q, subs, nil, authorityflow.StructureOnly())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("old rates: %v\n", ds.Rates)
	fmt.Printf("new rates: %v\n", ref.Rates)
	if err := eng.SetRates(ref.Rates); err != nil {
		log.Fatal(err)
	}
	res2 := solve(eng.Pin(), ref.Query, res.Scores)
	fmt.Printf("re-ranked (converged in %d iterations thanks to the warm start):\n", res2.Iterations)
	for i, r := range res2.TopKOfType(g, paperType, 5) {
		fmt.Printf("  %d. %.5f %s\n", i+1, r.Score, clip(g.Attr(r.Node, "Title"), 60))
	}
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

// solve ranks q under pin, warm-started from init when it is given.
func solve(pin *authorityflow.Pinned, q *authorityflow.Query, init []float64) *authorityflow.RankResult {
	spec := authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}}
	if init != nil {
		spec.Inits = [][]float64{init}
	}
	rs, err := pin.Solve(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	return rs[0]
}

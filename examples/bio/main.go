// Biological scenario: generate a DS7cancer-scale graph over the
// Figure 4 schema (Entrez Gene / Nucleotide / Protein, PubMed) and
// answer the kind of navigational question that motivates explanations
// in the paper: "why is this protein returned for the query [tnf]?"
// Objects with no obvious connection to the query get explained through
// the explicit authority paths that rank them.
//
// Run: go run ./examples/bio [-scale 0.25]
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
	scale := flag.Float64("scale", 0.25, "dataset scale relative to DS7cancer")
	flag.Parse()

	fmt.Printf("generating DS7cancer at scale %.2f...\n", *scale)
	ds, err := authorityflow.GenerateBio(authorityflow.DS7CancerConfig().Scale(*scale))
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

	// A gene-symbol query, like the paper's "TNF" example: pick a real
	// symbol from the corpus. Gene symbols occur in gene nodes and in
	// the abstracts of the publications that mention them.
	geneType, _ := g.Schema().TypeByName("EntrezGene")
	symbol := g.Attr(g.NodesOfType(geneType)[0], "Symbol")
	q := authorityflow.NewQuery(symbol)
	res := solve(pin, q, nil)
	fmt.Printf("query %v: base set %d nodes, %d iterations\n", q, len(res.Base), res.Iterations)
	for i, r := range res.TopK(8) {
		marker := " "
		if res.InBase(r.Node) {
			marker = "*"
		}
		fmt.Printf("%2d.%s %.5f %s\n", i+1, marker, r.Score, clip(g.Display(r.Node), 80))
	}

	// Find the best-ranked PROTEIN — typically not in the base set: it
	// is returned because associated genes and publications transfer
	// authority to it. Exactly the case the paper says needs proof.
	proteinType, _ := g.Schema().TypeByName("EntrezProtein")
	prots := res.TopKOfType(g, proteinType, 1)
	if len(prots) == 0 || prots[0].Score == 0 {
		log.Fatal("no ranked proteins at this scale; try a larger -scale")
	}
	target := prots[0].Node
	fmt.Printf("\n--- why is this protein returned? ---\n%s (in base set: %v)\n",
		g.Display(target), res.InBase(target))

	sg, err := pin.ExplainCtx(ctx, res, target, authorityflow.DefaultExplain())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explaining subgraph: %d nodes, %d arcs, explained score %.4g\n",
		len(sg.Nodes), len(sg.Arcs), sg.ExplainedScore())
	for i, p := range sg.TopPaths(sg.BaseSources(res), 4) {
		var hops []string
		for _, n := range p.Nodes {
			hops = append(hops, fmt.Sprintf("%s(%s)", g.LabelName(n), clip(g.Attrs(n)[0].Value, 20)))
		}
		fmt.Printf("  path %d (flow %.3g): %s\n", i+1, p.Flow, strings.Join(hops, " -> "))
	}

	// Feed the protein back: the gene->protein and protein->publication
	// edge types that carried its authority get boosted.
	ref, err := pin.ReformulateWeightedCtx(ctx, q, []*authorityflow.Subgraph{sg}, nil, authorityflow.StructureOnly())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrates before: %v\n", ds.Rates)
	fmt.Printf("rates after:  %v\n", ref.Rates)
	if err := eng.SetRates(ref.Rates); err != nil {
		log.Fatal(err)
	}
	res2 := solve(eng.Pin(), q, res.Scores)
	fmt.Println("\nre-ranked top results:")
	for i, r := range res2.TopK(5) {
		fmt.Printf("%2d. %.5f %s\n", i+1, r.Score, clip(g.Display(r.Node), 80))
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

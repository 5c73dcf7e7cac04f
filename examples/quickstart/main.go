// Quickstart: build a small bibliographic graph by hand (the paper's
// Figure 1 running example), rank it for the query "OLAP", explain the
// top result, and reformulate from feedback.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"authorityflow"
)

func main() {
	// 1. Define the schema graph (Figure 2): node types and typed edges.
	s := authorityflow.NewSchema()
	paper := s.AddNodeType("Paper")
	conf := s.AddNodeType("Conference")
	year := s.AddNodeType("Year")
	author := s.AddNodeType("Author")
	cites := s.MustAddEdgeType("cites", paper, paper)
	hasInstance := s.MustAddEdgeType("hasInstance", conf, year)
	contains := s.MustAddEdgeType("contains", year, paper)
	by := s.MustAddEdgeType("by", paper, author)

	// 2. Assign authority transfer rates (Figure 3): citing transfers
	// 0.7, being cited transfers nothing, and so on. Each direction of
	// each edge type gets its own rate.
	rates := authorityflow.NewRates(s)
	rates.Set(cites, authorityflow.Forward, 0.7)
	rates.Set(cites, authorityflow.Backward, 0.0)
	rates.Set(by, authorityflow.Forward, 0.2)
	rates.Set(by, authorityflow.Backward, 0.2)
	rates.Set(hasInstance, authorityflow.Forward, 0.3)
	rates.Set(hasInstance, authorityflow.Backward, 0.3)
	rates.Set(contains, authorityflow.Forward, 0.3)
	rates.Set(contains, authorityflow.Backward, 0.1)

	// 3. Build the data graph: the seven nodes of Figure 1.
	b := authorityflow.NewBuilder(s)
	attr := func(n, v string) authorityflow.Attr { return authorityflow.Attr{Name: n, Value: v} }
	indexSel := b.AddNode(paper, attr("Title", "Index Selection for OLAP."), attr("Venue", "ICDE 1997"))
	icde := b.AddNode(conf, attr("Name", "ICDE"))
	icde97 := b.AddNode(year, attr("Name", "ICDE"), attr("Year", "1997"), attr("Location", "Birmingham"))
	rangeQ := b.AddNode(paper, attr("Title", "Range Queries in OLAP Data Cubes."), attr("Venue", "SIGMOD 1997"))
	modeling := b.AddNode(paper, attr("Title", "Modeling Multidimensional Databases."), attr("Venue", "ICDE 1997"))
	agrawal := b.AddNode(author, attr("Name", "R. Agrawal"))
	dataCube := b.AddNode(paper, attr("Title", "Data Cube: A Relational Aggregation Operator Generalizing Group-By, Cross-Tab, and Sub-Total."), attr("Venue", "ICDE 1996"))

	b.AddEdge(icde, icde97, hasInstance)
	b.AddEdge(icde97, indexSel, contains)
	b.AddEdge(icde97, modeling, contains)
	b.AddEdge(indexSel, dataCube, cites)
	b.AddEdge(rangeQ, dataCube, cites)
	b.AddEdge(rangeQ, modeling, cites)
	b.AddEdge(modeling, dataCube, cites)
	b.AddEdge(rangeQ, agrawal, by)
	b.AddEdge(modeling, agrawal, by)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 4. Rank with ObjectRank2.
	eng, err := authorityflow.NewEngine(g, rates, authorityflow.Config{})
	if err != nil {
		log.Fatal(err)
	}
	// Every read goes through one pinned view of the corpus and rates.
	ctx, pin := context.Background(), eng.Pin()
	q := authorityflow.NewQuery("olap")
	res := solve(pin, q, nil)
	fmt.Printf("ObjectRank2 results for %v (base set: %d nodes):\n", q, len(res.Base))
	for i, r := range res.TopK(7) {
		fmt.Printf("%2d. %.4f  %s\n", i+1, r.Score, g.Display(r.Node))
	}
	fmt.Println()
	fmt.Println("Note: the \"Data Cube\" paper ranks first even though it does not")
	fmt.Println("contain the keyword — authority flows to it over citations.")
	fmt.Println()

	// 5. Explain why Data Cube is ranked so high.
	sg, err := pin.ExplainCtx(ctx, res, dataCube, authorityflow.DefaultExplain())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Explaining subgraph for %q: %d nodes, %d arcs, explained score %.4g\n",
		"Data Cube", len(sg.Nodes), len(sg.Arcs), sg.ExplainedScore())
	for i, p := range sg.TopPaths(sg.BaseSources(res), 3) {
		fmt.Printf("  path %d (flow %.3g):", i+1, p.Flow)
		for _, n := range p.Nodes {
			fmt.Printf(" [%s]", g.Attrs(n)[0].Value[:min(20, len(g.Attrs(n)[0].Value))])
		}
		fmt.Println()
	}
	fmt.Println()

	// 6. The user marks "Range Queries in OLAP Data Cubes" relevant;
	// reformulate both content and structure.
	fb, err := pin.ExplainCtx(ctx, res, rangeQ, authorityflow.DefaultExplain())
	if err != nil {
		log.Fatal(err)
	}
	ref, err := pin.ReformulateWeightedCtx(ctx, q, []*authorityflow.Subgraph{fb}, nil, authorityflow.ContentAndStructure())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Reformulated query: %v\n", ref.Query)
	fmt.Printf("Reformulated rates: %v\n", ref.Rates)
	if err := eng.SetRates(ref.Rates); err != nil {
		log.Fatal(err)
	}
	res2 := solve(eng.Pin(), ref.Query, res.Scores)
	fmt.Println("Re-ranked results:")
	for i, r := range res2.TopK(7) {
		fmt.Printf("%2d. %.4f  %s\n", i+1, r.Score, g.Display(r.Node))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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

package authorityflow_test

import (
	"context"
	"fmt"
	"strings"

	"authorityflow"
)

// Example demonstrates the full workflow of the paper on its own
// running example: ranking with ObjectRank2, explaining the top result,
// and reformulating from feedback.
func Example() {
	// Schema (Figure 2 of the paper).
	s := authorityflow.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)

	// Authority transfer rates: citing transfers 70% of authority,
	// being cited transfers none (Figure 3).
	rates := authorityflow.NewRates(s)
	rates.Set(cites, authorityflow.Forward, 0.7)
	rates.Set(cites, authorityflow.Backward, 0)

	// Data graph: two OLAP papers cite the (keyword-free) Data Cube
	// paper.
	b := authorityflow.NewBuilder(s)
	p1 := b.AddNode(paper, authorityflow.Attr{Name: "Title", Value: "Index Selection for OLAP"})
	p2 := b.AddNode(paper, authorityflow.Attr{Name: "Title", Value: "Range Queries in OLAP Cubes"})
	cube := b.AddNode(paper, authorityflow.Attr{Name: "Title", Value: "The Data Cube Operator"})
	b.AddEdge(p1, cube, cites)
	b.AddEdge(p2, cube, cites)
	g, _ := b.Build()

	eng, _ := authorityflow.NewEngine(g, rates, authorityflow.Config{})
	ctx, pin := context.Background(), eng.Pin()
	rs, _ := pin.Solve(ctx, authorityflow.SolveSpec{Queries: []*authorityflow.Query{authorityflow.NewQuery("olap")}})
	res := rs[0]
	top := res.TopK(1)[0]
	fmt.Printf("top result: %s (in base set: %v)\n",
		g.Attr(top.Node, "Title"), res.InBase(top.Node))

	// Why? Explain the authority flow into it.
	sg, _ := pin.ExplainCtx(ctx, res, top.Node, authorityflow.DefaultExplain())
	fmt.Printf("explained by %d authority paths from the base set\n",
		len(sg.TopPaths(sg.BaseSources(res), 10)))

	// Output:
	// top result: The Data Cube Operator (in base set: false)
	// explained by 2 authority paths from the base set
}

// ExamplePinned_ReformulateWeightedCtx shows structure-based reformulation: after
// feedback on a citation-ranked result, the cites rate grows relative
// to the others.
func ExamplePinned_ReformulateWeightedCtx() {
	s := authorityflow.NewSchema()
	paper := s.AddNodeType("Paper")
	author := s.AddNodeType("Author")
	cites := s.MustAddEdgeType("cites", paper, paper)
	by := s.MustAddEdgeType("by", paper, author)

	rates := authorityflow.NewRates(s)
	rates.Set(cites, authorityflow.Forward, 0.5)
	rates.Set(by, authorityflow.Forward, 0.5)

	b := authorityflow.NewBuilder(s)
	src := b.AddNode(paper, authorityflow.Attr{Name: "Title", Value: "olap survey"})
	hub := b.AddNode(paper, authorityflow.Attr{Name: "Title", Value: "foundations"})
	a := b.AddNode(author, authorityflow.Attr{Name: "Name", Value: "Someone"})
	b.AddEdge(src, hub, cites)
	b.AddEdge(src, a, by)
	g, _ := b.Build()

	eng, _ := authorityflow.NewEngine(g, rates, authorityflow.Config{})
	q := authorityflow.NewQuery("olap")
	ctx, pin := context.Background(), eng.Pin()
	rs, _ := pin.Solve(ctx, authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}})
	res := rs[0]

	// The user marks the citation-reached paper as relevant.
	sg, _ := pin.ExplainCtx(ctx, res, hub, authorityflow.DefaultExplain())
	ref, _ := pin.ReformulateWeightedCtx(ctx, q, []*authorityflow.Subgraph{sg}, nil, authorityflow.StructureOnly())

	newRates := ref.Rates
	citesRate := newRates.Rate(authorityflow.TransferType(cites, authorityflow.Forward))
	byRate := newRates.Rate(authorityflow.TransferType(by, authorityflow.Forward))
	fmt.Printf("cites rate exceeds by rate after feedback: %v\n", citesRate > byRate)

	// Output:
	// cites rate exceeds by rate after feedback: true
}

// Example_bio is the navigational question that motivates explanations
// in the paper's biological scenario (Figure 4 schema): why is this
// protein returned for a gene-symbol query it does not contain? The
// explaining subgraph names the typed paths that carried authority to
// it.
func Example_bio() {
	ds, _ := authorityflow.GeneratePreset("ds7cancer", 0.05, 1)
	g := ds.Graph
	eng, _ := authorityflow.NewEngine(g, ds.Rates, authorityflow.Config{})
	ctx, pin := context.Background(), eng.Pin()

	// A gene symbol occurs in its gene node and in the abstracts of the
	// publications that mention it.
	gene, _ := g.Schema().TypeByName("EntrezGene")
	q := authorityflow.NewQuery(g.Attr(g.NodesOfType(gene)[0], "Symbol"))
	rs, _ := pin.Solve(ctx, authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}})
	res := rs[0]

	// The best-ranked protein holds no keyword: associated genes and
	// publications transfer authority to it.
	protein, _ := g.Schema().TypeByName("EntrezProtein")
	target := res.TopKOfType(g, protein, 1)[0].Node
	fmt.Printf("top protein is in the base set: %v\n", res.InBase(target))

	sg, _ := pin.ExplainCtx(ctx, res, target, authorityflow.DefaultExplain())
	best := sg.TopPaths(sg.BaseSources(res), 1)[0]
	var hops []string
	for _, n := range best.Nodes {
		hops = append(hops, g.LabelName(n))
	}
	fmt.Printf("strongest authority path: %s\n", strings.Join(hops, " -> "))

	// Output:
	// top protein is in the base set: false
	// strongest authority path: EntrezGene -> PubMed -> EntrezProtein
}

// Example_training is the paper's Section 6.1.1 experiment in
// miniature: a simulated expert judges by the Figure 3 rates, the
// system starts from uniform 0.3 rates and recovers them from relevance
// feedback alone through structure-based reformulation (C_f = 0.5).
// The cosine between learned and expert rates rises (Figure 11's
// shape).
func Example_training() {
	ds, _ := authorityflow.GeneratePreset("dblptop", 0.05, 1)
	g := ds.Graph
	paper, _ := g.Schema().TypeByName("Paper")

	uniform := authorityflow.UniformRates(g.Schema(), 0.3)
	uniform.NormalizeOutgoing()
	sys, _ := authorityflow.NewEngine(g, uniform, authorityflow.Config{})
	user, _ := authorityflow.NewUser(g, ds.Rates, authorityflow.Config{}, 20, paper)

	cfg := authorityflow.DefaultSession(authorityflow.StructureOnly())
	cfg.Iterations = 4
	truth := ds.Rates.Vector()
	res, _ := authorityflow.RunSession(sys, user, authorityflow.ParseQuery("olap"), cfg)
	for i, cos := range res.RateCosines(truth) {
		fmt.Printf("cosine(learned, expert) after %d feedback rounds: %.2f\n", i, cos)
	}

	// Output:
	// cosine(learned, expert) after 0 feedback rounds: 0.81
	// cosine(learned, expert) after 1 feedback rounds: 0.82
	// cosine(learned, expert) after 2 feedback rounds: 0.86
	// cosine(learned, expert) after 3 feedback rounds: 0.89
	// cosine(learned, expert) after 4 feedback rounds: 0.90
}

package authorityflow_test

import (
	"context"
	"fmt"

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

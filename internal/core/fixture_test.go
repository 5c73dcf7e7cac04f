package core

import (
	"context"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// fixture bundles the paper's running example: the Figure 1/5/6
// seven-node DBLP subgraph with the Figure 3 authority transfer rates.
type fixture struct {
	g     *graph.Graph
	rates *graph.Rates
	types map[string]graph.TypeID
	edges map[string]graph.EdgeTypeID
	ids   map[string]graph.NodeID
}

// newDBLPSchema builds the Figure 2 schema: Paper, Conference, Year,
// Author with cites, hasInstance, contains and by edges.
func newDBLPSchema() (*graph.Schema, map[string]graph.TypeID, map[string]graph.EdgeTypeID) {
	s := graph.NewSchema()
	types := map[string]graph.TypeID{
		"Paper":      s.AddNodeType("Paper"),
		"Conference": s.AddNodeType("Conference"),
		"Year":       s.AddNodeType("Year"),
		"Author":     s.AddNodeType("Author"),
	}
	edges := map[string]graph.EdgeTypeID{
		"cites":       s.MustAddEdgeType("cites", types["Paper"], types["Paper"]),
		"hasInstance": s.MustAddEdgeType("hasInstance", types["Conference"], types["Year"]),
		"contains":    s.MustAddEdgeType("contains", types["Year"], types["Paper"]),
		"by":          s.MustAddEdgeType("by", types["Paper"], types["Author"]),
	}
	return s, types, edges
}

// figure3Rates assigns the Figure 3 authority transfer rates:
// cites 0.7/0.0, by 0.2/0.2, hasInstance 0.3/0.3, contains 0.3/0.1.
func figure3Rates(s *graph.Schema, edges map[string]graph.EdgeTypeID) *graph.Rates {
	r := graph.NewRates(s)
	r.Set(edges["cites"], graph.Forward, 0.7)
	r.Set(edges["cites"], graph.Backward, 0.0)
	r.Set(edges["by"], graph.Forward, 0.2)
	r.Set(edges["by"], graph.Backward, 0.2)
	r.Set(edges["hasInstance"], graph.Forward, 0.3)
	r.Set(edges["hasInstance"], graph.Backward, 0.3)
	r.Set(edges["contains"], graph.Forward, 0.3)
	r.Set(edges["contains"], graph.Backward, 0.1)
	return r
}

// newFixture builds the Figure 1 data graph. Node names follow the
// paper's v1..v7 numbering of Figure 6:
//
//	v1 "Index Selection for OLAP"         (base set for Q=[olap])
//	v2 Conference ICDE
//	v3 Year ICDE 1997
//	v4 "Range Queries in OLAP Data Cubes" (base set for Q=[olap])
//	v5 "Modeling Multidimensional Databases"
//	v6 Author R. Agrawal
//	v7 "Data Cube" (contains no query keyword, yet top-ranked)
func newFixture(t testing.TB) *fixture {
	t.Helper()
	s, types, edges := newDBLPSchema()
	b := graph.NewBuilder(s)
	ids := map[string]graph.NodeID{}
	ids["v1"] = b.AddNode(types["Paper"],
		graph.Attr{Name: "Title", Value: "Index Selection for OLAP."},
		graph.Attr{Name: "Authors", Value: "H. Gupta, V. Harinarayan, A. Rajaraman, J. Ullman"},
		graph.Attr{Name: "Year", Value: "ICDE 1997"})
	ids["v2"] = b.AddNode(types["Conference"],
		graph.Attr{Name: "Name", Value: "ICDE"})
	ids["v3"] = b.AddNode(types["Year"],
		graph.Attr{Name: "Name", Value: "ICDE"},
		graph.Attr{Name: "Year", Value: "1997"},
		graph.Attr{Name: "Location", Value: "Birmingham"})
	ids["v4"] = b.AddNode(types["Paper"],
		graph.Attr{Name: "Title", Value: "Range Queries in OLAP Data Cubes."},
		graph.Attr{Name: "Authors", Value: "C. Ho, R. Agrawal, N. Megiddo, R. Srikant"},
		graph.Attr{Name: "Year", Value: "SIGMOD 1997"})
	ids["v5"] = b.AddNode(types["Paper"],
		graph.Attr{Name: "Title", Value: "Modeling Multidimensional Databases."},
		graph.Attr{Name: "Authors", Value: "R. Agrawal, A. Gupta, S. Sarawagi"},
		graph.Attr{Name: "Year", Value: "ICDE 1997"})
	ids["v6"] = b.AddNode(types["Author"],
		graph.Attr{Name: "Name", Value: "R. Agrawal"})
	ids["v7"] = b.AddNode(types["Paper"],
		graph.Attr{Name: "Title", Value: "Data Cube: A Relational Aggregation Operator Generalizing Group-By, Cross-Tab, and Sub-Total."},
		graph.Attr{Name: "Authors", Value: "J. Gray, A. Bosworth, A. Layman, H. Pirahesh"},
		graph.Attr{Name: "Year", Value: "ICDE 1996"})

	b.AddEdge(ids["v2"], ids["v3"], edges["hasInstance"])
	b.AddEdge(ids["v3"], ids["v1"], edges["contains"])
	b.AddEdge(ids["v3"], ids["v5"], edges["contains"])
	b.AddEdge(ids["v1"], ids["v7"], edges["cites"])
	b.AddEdge(ids["v4"], ids["v7"], edges["cites"])
	b.AddEdge(ids["v4"], ids["v5"], edges["cites"])
	b.AddEdge(ids["v5"], ids["v7"], edges["cites"])
	b.AddEdge(ids["v4"], ids["v6"], edges["by"])
	b.AddEdge(ids["v5"], ids["v6"], edges["by"])

	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		g:     g,
		rates: figure3Rates(s, edges),
		types: types,
		edges: edges,
		ids:   ids,
	}
}

// newEngine builds an Engine over the fixture with a tight convergence
// threshold so golden-value comparisons are stable.
func (f *fixture) newEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine(f.g, f.rates, Config{
		Rank: rank.Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The helpers below are the tests' shorthands over Pinned.Solve and the
// pinned explain/reformulate entries, under a background context.

// rankPinned solves q in authority mode from the global PageRank.
func rankPinned(p *Pinned, q *ir.Query) *RankResult {
	return solveOne(p, SolveSpec{Queries: []*ir.Query{q}})
}

func solveOne(p *Pinned, spec SolveSpec) *RankResult {
	rs, err := p.Solve(context.Background(), spec)
	if err != nil {
		panic(err) // a background context cannot cancel a solve
	}
	return rs[0]
}

func rankQ(e *Engine, q *ir.Query) *RankResult { return rankPinned(e.Pin(), q) }

// rankFrom solves q warm-started from init.
func rankFrom(e *Engine, q *ir.Query, init []float64) *RankResult {
	return solveOne(e.Pin(), SolveSpec{Queries: []*ir.Query{q}, Inits: [][]float64{init}, Cold: true})
}

// rankCold solves q with no warm start.
func rankCold(e *Engine, q *ir.Query) *RankResult {
	return solveOne(e.Pin(), SolveSpec{Queries: []*ir.Query{q}, Cold: true})
}

func explain(e *Engine, res *RankResult, target graph.NodeID, opts ExplainOptions) (*Subgraph, error) {
	return e.Pin().ExplainCtx(context.Background(), res, target, opts)
}

func reformulate(e *Engine, q *ir.Query, feedback []*Subgraph, confidences []float64, opts ReformulateOptions) (*Reformulation, error) {
	return e.Pin().ReformulateWeightedCtx(context.Background(), q, feedback, confidences, opts)
}

// solveMode solves q in mode m from the direction's global PageRank.
func solveMode(p *Pinned, q *ir.Query, m Mode) (*RankResult, error) {
	return one(p.Solve(context.Background(), SolveSpec{Queries: []*ir.Query{q}, Mode: m}))
}

package authorityflow_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"authorityflow"
)

// buildFixture assembles the paper's Figure 1 graph through the public
// facade only, proving the exported API is sufficient for the full
// workflow.
func buildFixture(t testing.TB) (*authorityflow.Graph, *authorityflow.Rates, map[string]authorityflow.NodeID) {
	t.Helper()
	s := authorityflow.NewSchema()
	paper := s.AddNodeType("Paper")
	conf := s.AddNodeType("Conference")
	year := s.AddNodeType("Year")
	author := s.AddNodeType("Author")
	cites := s.MustAddEdgeType("cites", paper, paper)
	hasInstance := s.MustAddEdgeType("hasInstance", conf, year)
	contains := s.MustAddEdgeType("contains", year, paper)
	by := s.MustAddEdgeType("by", paper, author)

	rates := authorityflow.NewRates(s)
	rates.Set(cites, authorityflow.Forward, 0.7)
	rates.Set(by, authorityflow.Forward, 0.2)
	rates.Set(by, authorityflow.Backward, 0.2)
	rates.Set(hasInstance, authorityflow.Forward, 0.3)
	rates.Set(hasInstance, authorityflow.Backward, 0.3)
	rates.Set(contains, authorityflow.Forward, 0.3)
	rates.Set(contains, authorityflow.Backward, 0.1)

	b := authorityflow.NewBuilder(s)
	attr := func(n, v string) authorityflow.Attr { return authorityflow.Attr{Name: n, Value: v} }
	ids := map[string]authorityflow.NodeID{}
	ids["indexSel"] = b.AddNode(paper, attr("Title", "Index Selection for OLAP."))
	ids["icde"] = b.AddNode(conf, attr("Name", "ICDE"))
	ids["icde97"] = b.AddNode(year, attr("Name", "ICDE 1997"))
	ids["rangeQ"] = b.AddNode(paper, attr("Title", "Range Queries in OLAP Data Cubes."))
	ids["modeling"] = b.AddNode(paper, attr("Title", "Modeling Multidimensional Databases."))
	ids["agrawal"] = b.AddNode(author, attr("Name", "R. Agrawal"))
	ids["dataCube"] = b.AddNode(paper, attr("Title", "Data Cube: A Relational Aggregation Operator."))

	b.AddEdge(ids["icde"], ids["icde97"], hasInstance)
	b.AddEdge(ids["icde97"], ids["indexSel"], contains)
	b.AddEdge(ids["icde97"], ids["modeling"], contains)
	b.AddEdge(ids["indexSel"], ids["dataCube"], cites)
	b.AddEdge(ids["rangeQ"], ids["dataCube"], cites)
	b.AddEdge(ids["rangeQ"], ids["modeling"], cites)
	b.AddEdge(ids["modeling"], ids["dataCube"], cites)
	b.AddEdge(ids["rangeQ"], ids["agrawal"], by)
	b.AddEdge(ids["modeling"], ids["agrawal"], by)

	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, rates, ids
}

// solve runs a one-column spec under a background context.
func solve(t testing.TB, pin *authorityflow.Pinned, spec authorityflow.SolveSpec) *authorityflow.RankResult {
	t.Helper()
	rs, err := pin.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

func TestFacadeEndToEnd(t *testing.T) {
	g, rates, ids := buildFixture(t)
	eng, err := authorityflow.NewEngine(g, rates, authorityflow.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Rank.
	q := authorityflow.NewQuery("olap")
	ctx, pin := context.Background(), eng.Pin()
	res := solve(t, pin, authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}})
	top := res.TopK(3)
	if top[0].Node != ids["dataCube"] {
		t.Fatalf("top result = %v, want Data Cube", top[0])
	}

	// Explain.
	sg, err := pin.ExplainCtx(ctx, res, ids["dataCube"], authorityflow.DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	if sg.ExplainedScore() <= 0 || !sg.Converged {
		t.Fatal("explanation broken")
	}
	paths := sg.TopPaths(sg.BaseSources(res), 3)
	if len(paths) == 0 {
		t.Fatal("no authority paths")
	}

	// Export.
	var dot, js bytes.Buffer
	if err := authorityflow.ExportSubgraphDOT(&dot, g, sg); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dot.String(), "digraph") {
		t.Error("bad DOT output")
	}
	if err := authorityflow.ExportSubgraphJSON(&js, g, sg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "explainedScore") {
		t.Error("bad JSON output")
	}

	// Reformulate and re-rank.
	ref, err := pin.ReformulateWeightedCtx(ctx, q, []*authorityflow.Subgraph{sg}, nil, authorityflow.ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetRates(ref.Rates); err != nil {
		t.Fatal(err)
	}
	res2 := solve(t, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{ref.Query}, Inits: [][]float64{res.Scores}})
	if res2.TopK(1)[0].Score <= 0 {
		t.Fatal("re-ranking broken")
	}
}

func TestFacadeDatasetsAndStorage(t *testing.T) {
	ds, err := authorityflow.GeneratePreset("dblptop", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dblptop.snap")
	if err := authorityflow.SaveDatasetFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, ix, err := authorityflow.LoadCorpusSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumNodes() != ds.Graph.NumNodes() || ix == nil {
		t.Fatal("round trip lost nodes or the index")
	}

	bio, err := authorityflow.GeneratePreset("ds7cancer", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bio.Name != "ds7cancer" {
		t.Errorf("bio name = %q", bio.Name)
	}
	// The presets' expert rates validate.
	if ds.Rates.Validate() != nil {
		t.Error("DBLP expert rates invalid")
	}
	if bio.Rates.Validate() != nil {
		t.Error("bio expert rates invalid")
	}
}

func TestFacadeSimulationAndEval(t *testing.T) {
	ds, err := authorityflow.GeneratePreset("dblptop", 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	paperType, _ := ds.Graph.Schema().TypeByName("Paper")

	uniform := authorityflow.UniformRates(ds.Graph.Schema(), 0.3)
	uniform.NormalizeOutgoing()
	sys, err := authorityflow.NewEngine(ds.Graph, uniform, authorityflow.Config{})
	if err != nil {
		t.Fatal(err)
	}
	user, err := authorityflow.NewUser(ds.Graph, ds.Rates, authorityflow.Config{}, 20, paperType)
	if err != nil {
		t.Fatal(err)
	}
	cfg := authorityflow.DefaultSession(authorityflow.StructureOnly())
	cfg.Iterations = 2
	res, err := authorityflow.RunSession(sys, user, authorityflow.NewQuery("olap"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Precisions()) != 3 {
		t.Fatalf("precisions = %v", res.Precisions())
	}
	cos := res.RateCosines(ds.Rates.Vector())[0] // the untrained rates against the expert's
	if cos <= 0 || cos > 1 {
		t.Errorf("cosine = %v", cos)
	}
}

func TestFacadeQueryHelpers(t *testing.T) {
	q := authorityflow.ParseQuery("ranked search")
	if q.Len() != 2 {
		t.Fatalf("ParseQuery = %v", q)
	}
	if authorityflow.DefaultExplain().Radius != 3 {
		t.Error("DefaultExplain wrong")
	}
	if authorityflow.ContentOnly().Cf != 0 || authorityflow.StructureOnly().Ce != 0 {
		t.Error("presets wrong")
	}
	if authorityflow.ContentAndStructure().Ce == 0 {
		t.Error("combined preset wrong")
	}
	tt := authorityflow.TransferType(authorityflow.EdgeTypeID(3), authorityflow.Backward)
	if tt.EdgeType() != 3 || tt.Dir() != authorityflow.Backward {
		t.Error("TransferType helper wrong")
	}
}

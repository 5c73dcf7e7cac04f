package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

const testSchemaJSON = `{
  "nodeTypes": ["Paper", "Author"],
  "edgeTypes": [
    {"role": "cites", "from": "Paper", "to": "Paper"},
    {"role": "by", "from": "Paper", "to": "Author"}
  ],
  "rates": {
    "Paper-cites->Paper": 0.7,
    "Paper-by->Author": 0.2,
    "Paper<-by-Author": 0.2
  }
}`

const testNodesTSV = `# comment line
p1	Paper	Title=Index Selection for OLAP
p2	Paper	Title=Data Cube Operator	Venue=ICDE 1996

a1	Author	Name=J. Gray
`

const testEdgesTSV = `p1	p2	cites
p2	a1	by
`

func importTestDataset(t *testing.T) *graph.Graph {
	t.Helper()
	ds, err := ImportTSV(
		strings.NewReader(testSchemaJSON),
		strings.NewReader(testNodesTSV),
		strings.NewReader(testEdgesTSV),
		"mini")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "mini" {
		t.Errorf("name = %q", ds.Name)
	}
	return ds.Graph
}

// nodeTitled returns the node whose Title is title, or -1.
func nodeTitled(g *graph.Graph, title string) graph.NodeID {
	for v := 0; v < g.NumNodes(); v++ {
		if g.Attr(graph.NodeID(v), "Title") == title {
			return graph.NodeID(v)
		}
	}
	return -1
}

func TestImportTSV(t *testing.T) {
	g := importTestDataset(t)
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("%d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	// Attributes parsed, including multiple per node.
	cube := nodeTitled(g, "Data Cube Operator")
	if cube < 0 {
		t.Fatal("imported node not findable")
	}
	if got := g.Attr(cube, "Venue"); got != "ICDE 1996" {
		t.Errorf("Venue = %q", got)
	}
	// The imported dataset actually ranks: p2 receives citation
	// authority for [olap] even though only p1 contains the keyword.
	ds, err := ImportTSV(strings.NewReader(testSchemaJSON), strings.NewReader(testNodesTSV), strings.NewReader(testEdgesTSV), "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "imported" {
		t.Errorf("default name = %q", ds.Name)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := rankQ(t, eng, ir.NewQuery("olap"))
	if res.Scores[nodeTitled(ds.Graph, "Data Cube Operator")] <= 0 {
		t.Error("citation authority did not flow in imported graph")
	}
}

func TestImportTSVErrors(t *testing.T) {
	cases := []struct {
		name                 string
		schema, nodes, edges string
	}{
		{"bad schema json", "{", testNodesTSV, testEdgesTSV},
		{"no node types", `{"nodeTypes":[]}`, testNodesTSV, testEdgesTSV},
		{"edge type refs unknown", `{"nodeTypes":["A"],"edgeTypes":[{"role":"x","from":"A","to":"B"}]}`, "", ""},
		{"unknown node type", testSchemaJSON, "p1\tBook\tTitle=x\n", ""},
		{"short node line", testSchemaJSON, "p1\n", ""},
		{"empty id", testSchemaJSON, "\tPaper\n", ""},
		{"duplicate id", testSchemaJSON, "p1\tPaper\np1\tPaper\n", ""},
		{"bad attribute", testSchemaJSON, "p1\tPaper\tnoequalsign\n", ""},
		{"edge bad arity", testSchemaJSON, "p1\tPaper\n", "p1\tp1\n"},
		{"edge unknown node", testSchemaJSON, "p1\tPaper\n", "p1\tpX\tcites\n"},
		{"edge unknown role", testSchemaJSON, "p1\tPaper\n", "p1\tp1\tfrobs\n"},
		{"edge wrong endpoint types", testSchemaJSON, "p1\tPaper\na1\tAuthor\n", "a1\tp1\tcites\n"},
		{"invalid rates", `{"nodeTypes":["A"],"edgeTypes":[{"role":"x","from":"A","to":"A"}],"rates":{"A-x->A":0.9,"A<-x-A":0.9}}`, "", ""},
	}
	for _, c := range cases {
		_, err := ImportTSV(strings.NewReader(c.schema), strings.NewReader(c.nodes), strings.NewReader(c.edges), "x")
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	ds := testDataset(t)
	var schema, nodes, edges bytes.Buffer
	if err := ExportTSV(ds, &schema, &nodes, &edges); err != nil {
		t.Fatal(err)
	}
	got, err := ImportTSV(&schema, &nodes, &edges, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumNodes() != ds.Graph.NumNodes() || got.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d",
			got.Graph.NumNodes(), got.Graph.NumEdges(), ds.Graph.NumNodes(), ds.Graph.NumEdges())
	}
	// Ranking equality proves attribute and structure fidelity.
	opts := core.Config{}
	e1, err := core.NewEngine(ds.Graph, ds.Rates, opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.NewEngine(got.Graph, got.Rates, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := ir.NewQuery("olap")
	r1, r2 := rankQ(t, e1, q), rankQ(t, e2, q)
	for i := range r1.Scores {
		if r1.Scores[i] != r2.Scores[i] {
			t.Fatalf("score mismatch at %d", i)
		}
	}
}

func TestImportTSVFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := writeFileHelper(p, content); err != nil {
			t.Fatal(err)
		}
		return p
	}
	sp := write("schema.json", testSchemaJSON)
	np := write("corpus.tsv", testNodesTSV)
	ep := write("edges.tsv", testEdgesTSV)
	ds, err := ImportTSVFiles(sp, np, ep, "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "corpus" { // derived from the nodes filename
		t.Errorf("name = %q", ds.Name)
	}
	if _, err := ImportTSVFiles(filepath.Join(dir, "missing.json"), np, ep, ""); err == nil {
		t.Error("missing schema should error")
	}
	if _, err := ImportTSVFiles(sp, filepath.Join(dir, "missing.tsv"), ep, ""); err == nil {
		t.Error("missing nodes should error")
	}
	if _, err := ImportTSVFiles(sp, np, filepath.Join(dir, "missing.tsv"), ""); err == nil {
		t.Error("missing edges should error")
	}
}

func TestSanitizeTSV(t *testing.T) {
	if got := sanitizeTSV("a\tb\nc"); got != "a b c" {
		t.Errorf("sanitizeTSV = %q", got)
	}
}

func writeFileHelper(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

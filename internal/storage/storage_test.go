package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

func testDataset(t testing.TB) *datagen.Dataset {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.01)
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSaveLoadRoundTrip: a dataset that goes through the snapshot and
// comes back WITHOUT its stored index (the facade's LoadDataset path:
// the index is rebuilt from the reloaded graph's text) keeps its
// content, its rates and, bit for bit, its rankings.
func TestSaveLoadRoundTrip(t *testing.T) {
	ds, e1, snap := snapshotFixture(t)
	got, _, err := ReadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name {
		t.Errorf("name = %q", got.Name)
	}
	if got.Graph.NumNodes() != ds.Graph.NumNodes() || got.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Fatalf("size = %d nodes / %d edges, want %d / %d",
			got.Graph.NumNodes(), got.Graph.NumEdges(), ds.Graph.NumNodes(), ds.Graph.NumEdges())
	}
	for v := 0; v < ds.Graph.NumNodes(); v += 53 {
		id := graph.NodeID(v)
		if got.Graph.Text(id) != ds.Graph.Text(id) || got.Graph.LabelName(id) != ds.Graph.LabelName(id) ||
			len(got.Graph.OutArcs(id)) != len(ds.Graph.OutArcs(id)) {
			t.Fatalf("node %d differs after the round trip", v)
		}
	}
	gv, wv := got.Rates.Vector(), ds.Rates.Vector()
	for i := range wv {
		if gv[i] != wv[i] {
			t.Fatalf("rate %d = %v, want %v", i, gv[i], wv[i])
		}
	}
	e2, err := core.NewEngine(got.Graph, got.Rates, core.Config{Rank: rank.Options{Threshold: 1e-8, MaxIters: 500}})
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

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := ReadSnapshot([]byte("not a snapshot")); err == nil {
		t.Error("garbage input should error")
	}
}

func explainSomething(t testing.TB) (*graph.Graph, *core.Subgraph) {
	t.Helper()
	ds := testDataset(t)
	e, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{Rank: rank.Options{Threshold: 1e-7, MaxIters: 300}})
	if err != nil {
		t.Fatal(err)
	}
	res := rankQ(t, e, ir.NewQuery("olap"))
	top := res.TopK(1)
	if len(top) == 0 || top[0].Score == 0 {
		t.Fatal("no results to explain")
	}
	sg, err := e.Pin().ExplainCtx(context.Background(), res, top[0].Node, core.DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph, sg
}

func TestExportJSON(t *testing.T) {
	g, sg := explainSomething(t)
	var buf bytes.Buffer
	if err := ExportJSON(&buf, g, sg); err != nil {
		t.Fatal(err)
	}
	var out SubgraphJSON
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out.Target != int64(sg.Target) {
		t.Errorf("target = %d", out.Target)
	}
	if len(out.Nodes) != len(sg.Nodes) {
		t.Errorf("nodes = %d, want %d", len(out.Nodes), len(sg.Nodes))
	}
	if len(out.Arcs) != len(sg.Arcs) {
		t.Errorf("arcs = %d, want %d", len(out.Arcs), len(sg.Arcs))
	}
	// Arcs are sorted by descending flow for display.
	for i := 1; i < len(out.Arcs); i++ {
		if out.Arcs[i].Flow > out.Arcs[i-1].Flow {
			t.Error("arcs not sorted by flow")
			break
		}
	}
	if out.Query == "" {
		t.Error("query missing")
	}
}

func TestExportDOT(t *testing.T) {
	g, sg := explainSomething(t)
	var buf bytes.Buffer
	if err := ExportDOT(&buf, g, sg); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	if !strings.HasPrefix(dot, "digraph explain {") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Errorf("malformed DOT:\n%s", dot)
	}
	if !strings.Contains(dot, "peripheries=2") {
		t.Error("target not highlighted")
	}
	if strings.Count(dot, "->") != len(sg.Arcs) {
		t.Errorf("DOT arc count mismatch")
	}
}

func TestExportHTML(t *testing.T) {
	g, sg := explainSomething(t)
	var buf bytes.Buffer
	if err := ExportHTML(&buf, g, sg); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if !strings.HasPrefix(doc, "<!DOCTYPE html>") {
		t.Error("not an HTML document")
	}
	if !strings.Contains(doc, "<svg") || !strings.Contains(doc, "</svg>") {
		t.Error("missing SVG")
	}
	// One <g class="node"...> per subgraph node; exactly one target box.
	if got := strings.Count(doc, `class="node"`) + strings.Count(doc, `class="node target"`); got != len(sg.Nodes) {
		t.Errorf("rendered %d node boxes, want %d", got, len(sg.Nodes))
	}
	if got := strings.Count(doc, `class="node target"`); got != 1 {
		t.Errorf("rendered %d target boxes, want 1", got)
	}
	// One path per arc.
	if got := strings.Count(doc, `class="arc"`); got != len(sg.Arcs) {
		t.Errorf("rendered %d arcs, want %d", got, len(sg.Arcs))
	}
	// Attribute values are HTML-escaped: no raw angle brackets from
	// transfer-type names like "Paper-cites->Paper".
	if strings.Contains(doc, "cites->") {
		t.Error("unescaped transfer-type name in HTML")
	}
}

// TestTiedFlowOrder pins the order of equal-flow arcs on a symmetric
// fixture: twenty identical chains s_i -> a_i -> t, so the subgraph's
// forty arcs fall into two groups of twenty exactly tied flows,
// interleaved in CSR order. Everywhere arcs are ranked by flow — the
// top-budget selection, the full JSON export, the paths — ties come in
// (From, To, Type) order, not in the sort algorithm's.
func TestTiedFlowOrder(t *testing.T) {
	const chains = 20
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	target := b.AddNode(paper, graph.Attr{Name: "Title", Value: "target paper"})
	for i := 0; i < chains; i++ {
		src := b.AddNode(paper, graph.Attr{Name: "Title", Value: "start paper"})
		mid := b.AddNode(paper, graph.Attr{Name: "Title", Value: "middle paper"})
		b.AddEdge(src, mid, cites)
		b.AddEdge(mid, target, cites)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, 0.7)
	e, err := core.NewEngine(g, r, core.Config{Rank: rank.Options{Threshold: 1e-12, MaxIters: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	res := rankQ(t, e, ir.NewQuery("start"))
	sg, err := e.Pin().ExplainCtx(context.Background(), res, target, core.DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Arcs) != 2*chains {
		t.Fatalf("fixture has %d arcs, want %d", len(sg.Arcs), 2*chains)
	}

	full := BuildSubgraphJSON(g, sg, 0).Arcs
	groups := 1
	for i := 1; i < len(full); i++ {
		switch a, b := full[i-1], full[i]; {
		case a.Flow < b.Flow:
			t.Fatalf("arc %d ranks above a larger flow", i-1)
		case a.Flow > b.Flow:
			groups++
		case a.From > b.From || (a.From == b.From && a.To >= b.To):
			t.Errorf("tied arcs %d, %d out of (From, To) order: %d->%d before %d->%d", i-1, i, a.From, a.To, b.From, b.To)
		}
	}
	if groups != 2 {
		t.Fatalf("fixture has %d flow groups, want 2 groups of tied flows", groups)
	}
	// Every budget's arcs are a prefix of the full ranking, cutting
	// through a tie group included.
	for _, budget := range []int{1, 7, chains + 3} {
		top := sg.TopArcs(budget)
		clipped := BuildSubgraphJSON(g, sg, budget).Arcs
		if len(top) != budget || len(clipped) != budget {
			t.Fatalf("budget %d kept %d / %d arcs", budget, len(top), len(clipped))
		}
		for i := range top {
			if clipped[i] != full[i] || int64(top[i].From) != full[i].From || int64(top[i].To) != full[i].To {
				t.Errorf("budget %d arc %d = %d->%d, full ranking has %d->%d", budget, i, top[i].From, top[i].To, full[i].From, full[i].To)
			}
		}
	}
	// The tied paths come out in node order too.
	paths := sg.TopPaths(sg.BaseSources(res), chains)
	if len(paths) != chains {
		t.Fatalf("%d paths, want %d", len(paths), chains)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i-1].Flow != paths[i].Flow || paths[i-1].Nodes[0] >= paths[i].Nodes[0] {
			t.Errorf("tied paths %d, %d out of node order", i-1, i)
		}
	}
}

package datagen

import (
	"context"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

func smallLinkless(t testing.TB, seed int64) *Dataset {
	t.Helper()
	cfg := DefaultLinklessConfig().Scale(0.1)
	cfg.Seed = seed
	ds, err := GenerateLinkless(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateLinklessBasics(t *testing.T) {
	ds := smallLinkless(t, 1)
	g := ds.Graph
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	if err := ds.Rates.Validate(); err != nil {
		t.Fatalf("linkless rates invalid: %v", err)
	}
	s := g.Schema()
	docType, ok := s.TypeByName("Document")
	if !ok {
		t.Fatal("missing Document node type")
	}
	if got := g.CountByType()[docType]; got != g.NumNodes() {
		t.Fatalf("linkless corpus should be all Document nodes: %d of %d", got, g.NumNodes())
	}
	for _, d := range g.NodesOfType(docType)[:10] {
		if g.Attr(d, "Title") == "" {
			t.Errorf("document %d has no title", d)
		}
	}
	// The cluster graph caps every document at K knn edges.
	k := DefaultLinklessConfig().Neighbors
	if g.NumEdges() > k*g.NumNodes() {
		t.Fatalf("%d edges exceed the knn bound %d*%d", g.NumEdges(), k, g.NumNodes())
	}
}

func TestGenerateLinklessDeterministic(t *testing.T) {
	a := smallLinkless(t, 7)
	b := smallLinkless(t, 7)
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different sizes")
	}
	for v := 0; v < a.Graph.NumNodes(); v += 13 {
		if a.Graph.Text(graph.NodeID(v)) != b.Graph.Text(graph.NodeID(v)) {
			t.Fatalf("same seed produced different node %d", v)
		}
	}
	c := smallLinkless(t, 8)
	if a.Graph.NumEdges() == c.Graph.NumEdges() && a.Graph.Text(0) == c.Graph.Text(0) {
		t.Error("different seeds produced an identical corpus")
	}
}

func TestLinklessPreset(t *testing.T) {
	ds, err := Preset("linkless", 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "linkless" {
		t.Errorf("name = %q, want linkless", ds.Name)
	}
	found := false
	for _, n := range PresetNames() {
		if n == "linkless" {
			found = true
		}
	}
	if !found {
		t.Error("PresetNames does not list linkless")
	}
}

func TestLinklessAuthorityFlow(t *testing.T) {
	// Link-free authority end to end at the core layer: the cluster
	// graph alone carries enough flow for a topical query to rank
	// documents, and hub scores exist on the same corpus.
	ds := smallLinkless(t, 1)
	e, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := ir.NewQuery("olap")
	res := rankQ(t, e, q)
	if len(res.Base) == 0 {
		t.Fatal("no base set for a topic keyword on the linkless corpus")
	}
	top := res.TopK(5)
	if len(top) == 0 || top[0].Score <= 0 {
		t.Fatalf("no authority mass reached the top results: %+v", top)
	}
	e.Release(res)

	hubs, err := e.Pin().Solve(context.Background(), core.SolveSpec{Queries: []*ir.Query{q}, Mode: core.ModeHub})
	if err != nil {
		t.Fatal(err)
	}
	hub := hubs[0]
	if len(hub.Base) == 0 {
		t.Fatal("hub mode produced no base set on the linkless corpus")
	}
	e.Release(hub)
}

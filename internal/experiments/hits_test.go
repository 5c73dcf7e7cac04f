package experiments

import (
	"math"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// paperGraph builds n Paper nodes joined by the given cites edges, with
// the given forward/backward cites rates; titles, when given, become
// the papers' Title attributes in order.
func paperGraph(t testing.TB, n int, edges [][2]int, fw, bw float64, titles ...string) (*graph.Graph, *graph.Rates) {
	t.Helper()
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		if i < len(titles) {
			ids[i] = b.AddNode(paper, graph.Attr{Name: "Title", Value: titles[i]})
		} else {
			ids[i] = b.AddNode(paper)
		}
	}
	for _, e := range edges {
		b.AddEdge(ids[e[0]], ids[e[1]], cites)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, fw)
	r.Set(cites, graph.Backward, bw)
	return g, r
}

func TestHITSStarGraph(t *testing.T) {
	// Three papers all cite one: the cited paper is the top authority,
	// the citing papers are the hubs.
	g, _ := paperGraph(t, 4, [][2]int{{0, 3}, {1, 3}, {2, 3}}, 0.7, 0)
	res := HITS(g, nil, 1e-10, 1000)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Authorities[3] <= res.Authorities[0] {
		t.Errorf("cited paper should be top authority: %v", res.Authorities)
	}
	for i := 0; i < 3; i++ {
		if res.Hubs[i] <= res.Hubs[3] {
			t.Errorf("citing paper %d should out-hub the sink: %v", i, res.Hubs)
		}
	}
	// L2 normalization.
	sum := 0.0
	for _, a := range res.Authorities {
		sum += a * a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("authority norm = %v", sum)
	}
}

func TestHITSSubsetRestriction(t *testing.T) {
	// Edges 0->1 and 2->3; restricting to {0,1} must zero out 2 and 3.
	g, _ := paperGraph(t, 4, [][2]int{{0, 1}, {2, 3}}, 0.7, 0)
	res := HITS(g, []graph.NodeID{0, 1}, 1e-10, 100)
	if res.Authorities[3] != 0 || res.Hubs[2] != 0 {
		t.Errorf("subset leaked: %v %v", res.Authorities, res.Hubs)
	}
	if res.Authorities[1] <= 0 {
		t.Error("in-subset authority missing")
	}
	// Out-of-range subset entries are ignored, not fatal.
	res = HITS(g, []graph.NodeID{0, 1, 99, -5}, 1e-10, 100)
	if res.Authorities[1] <= 0 {
		t.Error("subset with bad ids broke scoring")
	}
}

func TestHITSEmptyAndDefaults(t *testing.T) {
	g, _ := paperGraph(t, 2, nil, 0.7, 0)
	res := HITS(g, nil, 0, 0) // defaults kick in
	if res.Iterations == 0 {
		t.Error("no iterations run")
	}
	// No edges: authority goes to zero vector (normalization no-op).
	for _, a := range res.Authorities {
		if a != 0 {
			t.Errorf("authority on edgeless graph = %v", a)
		}
	}
}

func TestFocusedSubgraph(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3.
	g, _ := paperGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 0.7, 0)
	got := FocusedSubgraph(g, []graph.NodeID{0}, 1)
	want := map[graph.NodeID]bool{0: true, 1: true}
	if len(got) != 2 {
		t.Fatalf("radius 1 = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected node %d", v)
		}
	}
	// Radius includes backward arcs (transfer arcs go both ways), so
	// from node 2 at radius 1 both 1 and 3 are reachable.
	got = FocusedSubgraph(g, []graph.NodeID{2}, 1)
	if len(got) != 3 {
		t.Errorf("radius-1 around middle = %v", got)
	}
	// Duplicates in base are deduplicated.
	got = FocusedSubgraph(g, []graph.NodeID{0, 0, 0}, 0)
	if len(got) != 1 {
		t.Errorf("dedup failed: %v", got)
	}
}

func TestHITSBaseline(t *testing.T) {
	// Two olap papers and a modeling paper all cite the data cube paper,
	// as in the paper's Figure 1 example.
	g, r := paperGraph(t, 4, [][2]int{{0, 3}, {1, 3}, {1, 2}, {2, 3}}, 0.7, 0,
		"Index Selection for OLAP", "Range Queries in OLAP Data Cubes",
		"Modeling Multidimensional Databases", "Data Cube")
	e, err := core.NewEngine(g, r, core.Config{
		Rank: rank.Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := HITSBaseline(e, ir.NewQuery("olap"), 2)
	if !res.Converged {
		t.Fatal("HITS did not converge")
	}
	// The Data Cube paper is the citation sink of the focused subgraph
	// and must be its top authority.
	if top := res.TopK(1); top[0].Node != 3 {
		t.Errorf("HITS top authority = %v, want node 3", top[0])
	}
	// An empty base set yields all-zero scores.
	empty := HITSBaseline(e, ir.NewQuery("zebra"), 2)
	for i, s := range empty.Scores {
		if s != 0 {
			t.Errorf("score[%d] = %v for empty base", i, s)
		}
	}
}

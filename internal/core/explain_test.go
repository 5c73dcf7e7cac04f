package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// chainFixture builds the hand-computable leak example:
//
//	s -> a -> t   (s in the base set for "start")
//	     a -> x   (x cannot reach t, so flow over a->x leaks out)
//
// All edges are cites (0.7 forward, 0 backward), d = 0.85.
// Closed forms: r(s)=0.15, r(a)=0.85·0.7·0.15, r(t)=r(x)=0.85·0.35·r(a);
// h(t)=1, h(a)=0.35, h(s)=0.245.
func chainFixture(t *testing.T) (*Engine, map[string]graph.NodeID) {
	t.Helper()
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	ids := map[string]graph.NodeID{
		"s": b.AddNode(paper, graph.Attr{Name: "Title", Value: "start paper"}),
		"a": b.AddNode(paper, graph.Attr{Name: "Title", Value: "middle paper"}),
		"t": b.AddNode(paper, graph.Attr{Name: "Title", Value: "target paper"}),
		"x": b.AddNode(paper, graph.Attr{Name: "Title", Value: "leak paper"}),
	}
	b.AddEdge(ids["s"], ids["a"], cites)
	b.AddEdge(ids["a"], ids["t"], cites)
	b.AddEdge(ids["a"], ids["x"], cites)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, 0.7)
	e, err := NewEngine(g, r, Config{Rank: rank.Options{Damping: 0.85, Threshold: 1e-12, MaxIters: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	return e, ids
}

func TestExplainChainClosedForm(t *testing.T) {
	e, ids := chainFixture(t)
	res := rankQ(e, ir.NewQuery("start"))
	sg, err := explain(e, res, ids["t"], ExplainOptions{Threshold: 1e-12, MaxIters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !sg.Converged {
		t.Fatal("flow adjustment did not converge")
	}
	// Construction: exactly {s, a, t}; the leak node x is excluded.
	if sg.Has(ids["x"]) {
		t.Error("leak node x must not be in the explaining subgraph")
	}
	for _, n := range []string{"s", "a", "t"} {
		if !sg.Has(ids[n]) {
			t.Errorf("node %s missing from subgraph", n)
		}
	}
	if len(sg.Arcs) != 2 {
		t.Fatalf("arcs = %v", sg.FlowArcs())
	}

	// Reduction factors (Equation 10).
	if h := sg.H(ids["t"]); h != 1 {
		t.Errorf("h(target) = %v, want 1", h)
	}
	if h := sg.H(ids["a"]); math.Abs(h-0.35) > 1e-9 {
		t.Errorf("h(a) = %v, want 0.35", h)
	}
	if h := sg.H(ids["s"]); math.Abs(h-0.245) > 1e-9 {
		t.Errorf("h(s) = %v, want 0.245", h)
	}

	// Flows (Equations 5 and 7).
	rs, ra := 0.15, 0.85*0.7*0.15
	wantFlow0SA := 0.85 * 0.7 * rs
	wantFlowSA := 0.35 * wantFlow0SA
	wantFlowAT := 0.85 * 0.35 * ra // unchanged: enters the target
	for _, a := range sg.FlowArcs() {
		switch {
		case a.From == ids["s"] && a.To == ids["a"]:
			if math.Abs(a.Flow0-wantFlow0SA) > 1e-9 {
				t.Errorf("Flow0(s->a) = %v, want %v", a.Flow0, wantFlow0SA)
			}
			if math.Abs(a.Flow-wantFlowSA) > 1e-9 {
				t.Errorf("Flow(s->a) = %v, want %v", a.Flow, wantFlowSA)
			}
		case a.From == ids["a"] && a.To == ids["t"]:
			if math.Abs(a.Flow-wantFlowAT) > 1e-9 {
				t.Errorf("Flow(a->t) = %v, want %v", a.Flow, wantFlowAT)
			}
			if a.Flow != a.Flow0 {
				t.Error("flows into the target must not be adjusted")
			}
		default:
			t.Errorf("unexpected arc %+v", a)
		}
	}
	if got := sg.ExplainedScore(); math.Abs(got-wantFlowAT) > 1e-9 {
		t.Errorf("ExplainedScore = %v, want %v", got, wantFlowAT)
	}
	// Distances from the target.
	if distOf(sg, ids["t"]) != 0 || distOf(sg, ids["a"]) != 1 || distOf(sg, ids["s"]) != 2 {
		t.Errorf("distances = %v", sg.dist)
	}
	// In/out flow bookkeeping.
	if got := sg.OutFlow(ids["a"]); math.Abs(got-wantFlowAT) > 1e-9 {
		t.Errorf("OutFlow(a) = %v", got)
	}
	if got := sg.InFlow(ids["a"]); math.Abs(got-wantFlowSA) > 1e-9 {
		t.Errorf("InFlow(a) = %v", got)
	}
}

// TestExample1DataCubeExcluded reproduces Example 1: the explaining
// subgraph for target v4 ("Range Queries in OLAP") under Q=["OLAP"]
// contains v1..v6 but NOT the "Data Cube" paper v7, because with the
// Figure 3 rates (cited = 0) no authority can flow from v7 to v4.
func TestExample1DataCubeExcluded(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	sg, err := explain(e, res, f.ids["v4"], ExplainOptions{Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if sg.Has(f.ids["v7"]) {
		t.Error("v7 (Data Cube) must not be in the explaining subgraph")
	}
	for _, n := range []string{"v1", "v2", "v3", "v4", "v5", "v6"} {
		if !sg.Has(f.ids[n]) {
			t.Errorf("%s missing from explaining subgraph", n)
		}
	}
	if h := sg.H(f.ids["v4"]); h != 1 {
		t.Errorf("h(v4) = %v, want 1 (target flows are not adjusted)", h)
	}
	if !sg.Converged {
		t.Error("Equation 10 fixpoint did not converge (Theorem 1)")
	}
	// All reduction factors lie in [0, 1].
	for _, v := range sg.Nodes {
		h := sg.H(v)
		if h < 0 || h > 1+1e-9 {
			t.Errorf("h(%d) = %v outside [0,1]", v, h)
		}
	}
	// Flows into the target are the original ones.
	for _, a := range sg.FlowArcs() {
		if a.To == f.ids["v4"] && math.Abs(a.Flow-a.Flow0) > 1e-12 {
			t.Errorf("incoming target flow adjusted: %+v", a)
		}
		if a.Flow > a.Flow0+1e-12 {
			t.Errorf("adjusted flow exceeds original: %+v", a)
		}
	}
	if sg.ExplainedScore() <= 0 {
		t.Error("target should receive positive explained authority")
	}
}

// TestObservation1 verifies: no arc with non-zero authority flow enters
// the (radius-unlimited) subgraph from outside it.
func TestObservation1(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	for _, target := range []graph.NodeID{f.ids["v4"], f.ids["v7"], f.ids["v6"]} {
		sg, err := explain(e, res, target, ExplainOptions{Threshold: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		alpha := e.Pin().Rates()
		for u := 0; u < f.g.NumNodes(); u++ {
			if res.Scores[u] == 0 {
				continue
			}
			for _, a := range f.g.OutArcs(graph.NodeID(u)) {
				if alpha.Rate(a.Type) == 0 {
					continue
				}
				if sg.Has(a.To) && a.To != target && !sg.Has(graph.NodeID(u)) {
					t.Errorf("target %d: arc %d->%d carries flow from outside the subgraph", target, u, a.To)
				}
			}
		}
	}
}

func TestExplainRadiusLimits(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	// Radius 1 around v4: only v6 has a positive-rate arc into v4
	// (cited rate is 0), and v6 is forward-reachable from v4 itself (a
	// base-set member) via the by edge.
	sg, err := explain(e, res, f.ids["v4"], ExplainOptions{Radius: 1, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	want := map[graph.NodeID]bool{f.ids["v4"]: true, f.ids["v6"]: true}
	if len(sg.Nodes) != len(want) {
		t.Fatalf("radius-1 nodes = %v", sg.Nodes)
	}
	for _, v := range sg.Nodes {
		if !want[v] {
			t.Errorf("unexpected node %d at radius 1", v)
		}
	}
	for _, v := range sg.Nodes {
		if distOf(sg, v) > 1 {
			t.Errorf("node %d at distance %d despite radius 1", v, distOf(sg, v))
		}
	}
	// Larger radius yields a superset.
	sg3, err := explain(e, res, f.ids["v4"], ExplainOptions{Radius: 3, Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sg.Nodes {
		if !sg3.Has(v) {
			t.Errorf("radius-3 subgraph missing radius-1 node %d", v)
		}
	}
}

func TestExplainTargetWithNoInflow(t *testing.T) {
	// Explaining an unreachable target yields a singleton subgraph with
	// zero explained score rather than an error.
	e, ids := chainFixture(t)
	res := rankQ(e, ir.NewQuery("target")) // base = {t}; nothing flows to s
	sg, err := explain(e, res, ids["s"], ExplainOptions{Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if got := sg.ExplainedScore(); got != 0 {
		t.Errorf("ExplainedScore = %v, want 0", got)
	}
	if !sg.Has(ids["s"]) {
		t.Error("target itself must always be present")
	}
}

func TestExplainBadTarget(t *testing.T) {
	e, _ := chainFixture(t)
	res := rankQ(e, ir.NewQuery("start"))
	if _, err := explain(e, res, graph.NodeID(99), ExplainOptions{}); err == nil {
		t.Error("out-of-range target should error")
	}
	if _, err := explain(e, res, graph.NodeID(-1), ExplainOptions{}); err == nil {
		t.Error("negative target should error")
	}
}

func TestTopPathsChain(t *testing.T) {
	e, ids := chainFixture(t)
	res := rankQ(e, ir.NewQuery("start"))
	sg, err := explain(e, res, ids["t"], ExplainOptions{Threshold: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	paths := sg.TopPaths(sg.BaseSources(res), 5)
	if len(paths) != 1 {
		t.Fatalf("paths = %+v", paths)
	}
	p := paths[0]
	if len(p.Nodes) != 3 || p.Nodes[0] != ids["s"] || p.Nodes[2] != ids["t"] {
		t.Errorf("path nodes = %v", p.Nodes)
	}
	// Bottleneck is the smaller of the two adjusted flows.
	wantBottleneck := math.Min(0.35*0.85*0.7*0.15, 0.85*0.35*(0.85*0.7*0.15))
	if math.Abs(p.Flow-wantBottleneck) > 1e-9 {
		t.Errorf("path flow = %v, want %v", p.Flow, wantBottleneck)
	}
	if got := sg.TopPaths(nil, 5); got != nil {
		t.Errorf("TopPaths with no sources = %v", got)
	}
	if got := sg.TopPaths(sg.BaseSources(res), 0); got != nil {
		t.Errorf("TopPaths k=0 = %v", got)
	}
}

func TestTopPathsOrdering(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	sg, err := explain(e, res, f.ids["v7"], ExplainOptions{Threshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	paths := sg.TopPaths(sg.BaseSources(res), 10)
	if len(paths) < 2 {
		t.Fatalf("expected multiple paths into v7, got %d", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Flow > paths[i-1].Flow+1e-12 {
			t.Errorf("paths not sorted by flow: %v then %v", paths[i-1].Flow, paths[i].Flow)
		}
	}
	for _, p := range paths {
		if p.Nodes[len(p.Nodes)-1] != f.ids["v7"] {
			t.Errorf("path does not end at target: %v", p.Nodes)
		}
		if len(p.Arcs) != len(p.Nodes)-1 {
			t.Errorf("arc/node count mismatch: %v", p)
		}
	}
}

// TestTopPathsMutualCitation: u and v cite each other, so u→v (and v→u)
// is two parallel arcs, the forward arc of one citation and the
// backward arc of the other, and paths through them tie on bottleneck,
// length and node sequence. The arcs settle them in CompareFlow order,
// the order the search finds them in: the full list is strictly
// ordered and every k returns its k-long prefix.
func TestTopPathsMutualCitation(t *testing.T) {
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	ids := map[string]graph.NodeID{}
	for _, name := range []string{"s", "u", "v", "t", "x1", "x2", "x3", "x4"} {
		title := name + " paper"
		if name == "s" {
			title = "start paper"
		}
		ids[name] = b.AddNode(paper, graph.Attr{Name: "Title", Value: title})
	}
	// s also cites four papers off the way, so its one arc toward t is
	// the bottleneck of every path.
	for _, e := range [][2]string{{"s", "u"}, {"s", "x1"}, {"s", "x2"}, {"s", "x3"}, {"s", "x4"}, {"u", "v"}, {"v", "u"}, {"u", "t"}, {"v", "t"}} {
		b.AddEdge(ids[e[0]], ids[e[1]], cites)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Equal rates both ways give the parallel arcs equal flows, so two
	// paths differ only in one arc's Type.
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, 0.5)
	r.Set(cites, graph.Backward, 0.5)
	e, err := NewEngine(g, r, Config{Rank: rank.Options{Damping: 0.85, Threshold: 1e-12, MaxIters: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	res := rankQ(e, ir.NewQuery("start"))
	sg, err := explain(e, res, ids["t"], ExplainOptions{Threshold: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	sources := sg.BaseSources(res)
	all := sg.TopPaths(sources, 100)
	ties := 0
	for i := 1; i < len(all); i++ {
		p, q := all[i-1], all[i]
		if comparePaths(p, q) >= 0 {
			t.Fatalf("paths %d and %d are not strictly ordered: %v then %v", i-1, i, p, q)
		}
		if p.Flow == q.Flow && slices.Equal(p.Nodes, q.Nodes) {
			ties++
			if c := slices.CompareFunc(p.Arcs, q.Arcs, CompareFlow); c >= 0 {
				t.Errorf("paths over %v: arcs %v before %v", p.Nodes, p.Arcs, q.Arcs)
			}
		}
	}
	if ties == 0 {
		t.Fatalf("no two of the %d paths tie on flow and nodes: the fixture lost its parallel arcs", len(all))
	}
	for k := 1; k <= len(all)+1; k++ {
		got := sg.TopPaths(sources, k)
		if want := all[:min(k, len(all))]; !slices.EqualFunc(got, want, func(x, y Path) bool {
			return x.Flow == y.Flow && slices.Equal(x.Nodes, y.Nodes) && slices.Equal(x.Arcs, y.Arcs)
		}) {
			t.Errorf("k=%d: %v, want the prefix %v", k, got, want)
		}
	}
}

// TestExplainInvariantsRandom checks the Section 4 invariants on random
// graphs: h in [0,1] with h(target)=1, Flow <= Flow0, unadjusted target
// inflows, and out-flow never exceeding d·r(v) (a node cannot forward
// more authority than it forwards in the full graph).
func TestExplainInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	for trial := 0; trial < 20; trial++ {
		b := graph.NewBuilder(s)
		n := 8 + rng.Intn(20)
		ids := make([]graph.NodeID, n)
		for i := range ids {
			title := "paper"
			if rng.Intn(3) == 0 {
				title = "olap paper"
			}
			ids[i] = b.AddNode(paper, graph.Attr{Name: "Title", Value: title})
		}
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(ids[u], ids[v], cites)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		r := graph.NewRates(s)
		r.Set(cites, graph.Forward, 0.6)
		r.Set(cites, graph.Backward, 0.2)
		e, err := NewEngine(g, r, Config{Rank: rank.Options{Threshold: 1e-10, MaxIters: 2000}})
		if err != nil {
			t.Fatal(err)
		}
		res := rankQ(e, ir.NewQuery("olap"))
		target := ids[rng.Intn(n)]
		sg, err := explain(e, res, target, ExplainOptions{Threshold: 1e-10, MaxIters: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !sg.Converged {
			t.Fatalf("trial %d: no convergence", trial)
		}
		if sg.H(target) != 1 {
			t.Fatalf("trial %d: h(target) = %v", trial, sg.H(target))
		}
		for _, v := range sg.Nodes {
			h := sg.H(v)
			if h < -1e-12 || h > 1+1e-9 {
				t.Fatalf("trial %d: h(%d) = %v", trial, v, h)
			}
		}
		for _, a := range sg.FlowArcs() {
			if a.Flow > a.Flow0+1e-12 {
				t.Fatalf("trial %d: Flow > Flow0 on %+v", trial, a)
			}
			if a.To == target && math.Abs(a.Flow-a.Flow0) > 1e-12 {
				t.Fatalf("trial %d: target inflow adjusted: %+v", trial, a)
			}
		}
		d := 0.85
		for _, v := range sg.Nodes {
			if out := sg.OutFlow(v); out > d*res.Scores[v]+1e-9 {
				t.Fatalf("trial %d: OutFlow(%d) = %v exceeds d·r = %v", trial, v, out, d*res.Scores[v])
			}
		}
	}
}

// citationWeb builds n papers joined by m random cites edges, every
// third one titled "olap", under cites 0.6 forward and 0.2 backward: an
// unbounded explain of a top result keeps most of the graph.
func citationWeb(t *testing.T, rng *rand.Rand, n, m int) *Engine {
	t.Helper()
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	for i := 0; i < n; i++ {
		title := "paper"
		if i%3 == 0 {
			title = "olap paper"
		}
		b.AddNode(paper, graph.Attr{Name: "Title", Value: title})
	}
	for i := 0; i < m; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), cites)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, 0.6)
	r.Set(cites, graph.Backward, 0.2)
	e, err := NewEngine(g, r, Config{Rank: rank.Options{Threshold: 1e-10, MaxIters: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// forgetter returns a function that drops the memoized topology of the
// authority-mode explain of target under res at opts from the decoded
// tier and the target's ball from the ball tier, so the next one
// builds; it allocates nothing.
func forgetter(p *Pinned, res *RankResult, target graph.NodeID, opts ExplainOptions) func() {
	key := topologyKey(0, target, opts.Radius, p.st.snap.zeros, res.Base)
	return func() { p.st.gen.topologies.Remove(key); p.st.gen.balls.Remove(key[:ballKeyLen(p.st.snap.zeros)]) }
}

// decodedForgetter is forgetter for the decoded tier alone: the next
// explain derives the topology from the target's ball.
func decodedForgetter(p *Pinned, res *RankResult, target graph.NodeID, opts ExplainOptions) func() {
	key := topologyKey(0, target, opts.Radius, p.st.snap.zeros, res.Base)
	return func() { p.st.gen.topologies.Remove(key) }
}

// explainBytesCeiling: in steady state one explain that builds its
// topology allocates at most 24 bytes per subgraph arc (a ball's and a
// derived topology's 12-byte ArcRefs), 64 per node and 1 KiB besides,
// and so does one that derives it from the target's ball; one that
// reuses it at most 40 bytes per node — its five per-node float arrays —
// 4 per base-set node for its memo key and 1 KiB besides, measured as
// the TotalAlloc growth over 100 explains of a subgraph of thousands of
// arcs, each read through ExplainedScore as an endpoint reads it, so
// the Equation 6 pass runs. A 40-byte FlowArc per arc, any per-arc
// array kept beside the ArcRefs, a derive with an O(|V|) or O(|E|)
// term, or a reuse that copies Nodes, Arcs, the rows or the distances
// breaks it. It runs on one P: a sync.Pool Put lands in the running P's
// private slot, so a goroutine that moves to another P between explains
// misses the scratch and grows a new one.
func explainBytesCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pin := citationWeb(t, rand.New(rand.NewSource(3)), 400, 2400).Pin()
	res := rankPinned(pin, ir.NewQuery("olap"))
	target, opts := res.TopK(1)[0].Node, ExplainOptions{Threshold: 1e-9}
	sg, err := pin.ExplainCtx(context.Background(), res, target, opts) // fills the pool
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Arcs) < 1000 {
		t.Fatalf("subgraph of %d arcs measures too little", len(sg.Arcs))
	}
	build := 24*len(sg.Arcs) + 64*len(sg.Nodes) + 1024
	for _, c := range []struct {
		path    string
		before  func()
		ceiling int
	}{
		{"built", forgetter(pin, res, target, opts), build},
		{"reused", func() {}, 40*len(sg.Nodes) + 4*len(res.Base) + 1024},
		{"derived", decodedForgetter(pin, res, target, opts), build},
	} {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.before()
			sg, err := pin.ExplainCtx(context.Background(), res, target, opts)
			if err != nil || sg.TopologyPath() != c.path {
				t.Fatalf("%s: (%v, %v)", c.path, sg.TopologyPath(), err)
			}
			if sg.ExplainedScore() <= 0 {
				t.Fatalf("%s: no authority reaches the target", c.path)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(c.ceiling) {
			t.Errorf("one %s explain of %d arcs and %d nodes allocates %d bytes, want <= %d", c.path, len(sg.Arcs), len(sg.Nodes), per, c.ceiling)
		}
	}
}

// TestSubgraphOutlivesItsRanking: a subgraph derives its flows from its
// own copy of the scores, not from the ranking's pooled buffer. After
// the ranking is released, a solve of another query has drawn from the
// pool and the released buffer is scribbled over, every derived arc
// field is still the same float64.
func TestSubgraphOutlivesItsRanking(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	pin := e.Pin()
	res := rankPinned(pin, ir.NewQuery("olap"))
	sg, err := pin.ExplainCtx(context.Background(), res, f.ids["v7"], DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	want := sg.FlowArcs()
	if len(want) < 3 {
		t.Fatalf("subgraph of %d arcs exercises nothing", len(want))
	}
	scores := res.Scores
	e.Release(res)
	e.Release(rankPinned(pin, ir.NewQuery("agrawal")))
	for i := range scores {
		scores[i] = math.NaN()
	}
	bits := func(a FlowArc) [6]uint64 {
		return [6]uint64{uint64(a.From), uint64(a.To), uint64(a.Type),
			math.Float64bits(a.Rate), math.Float64bits(a.Flow0), math.Float64bits(a.Flow)}
	}
	for i, a := range sg.FlowArcs() {
		if bits(a) != bits(want[i]) {
			t.Errorf("arc %d is %+v after its ranking was released, was %+v", i, a, want[i])
		}
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// countdown is a context that reports cancellation from its n-th Err
// poll on: it lands a cancellation on each poll of an explain in turn.
type countdown struct {
	context.Context
	left int
}

func (c *countdown) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestExplainPooledScratch: one explain that builds its topology and
// reads its explained score, as every endpoint does, allocates at most
// 11 objects (the Subgraph, its two per-node float arrays in one, the
// memo key, its decoded-tier entry, the ball and the derived topology,
// each a struct and one backing of Nodes, the distances, the rows and
// Arcs, the ball's key and ball-tier entry, and the array behind the
// three Eq. 6 slices), one that derives it from the ball at most 7 (the
// same less the ball's four), and one that reuses it at most 4 (the
// Subgraph, its float arrays, the key and the Eq. 6 array), within
// explainBytesCeiling's byte ceilings; a build's and a derive's pooled
// scratch neither grows across 100 explains of one target nor comes
// back dirty, also after a cancellation at each of their polls, and a
// reuse draws no scratch at all; and an explain cancelled at any poll
// stores nothing in either tier.
func TestExplainPooledScratch(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool
	f := newFixture(t)
	pin := f.newEngine(t).Pin()
	res := rankPinned(pin, ir.NewQuery("olap"))
	run := func(ctx context.Context) (*Subgraph, error) {
		return pin.ExplainCtx(ctx, res, f.ids["v7"], DefaultExplain())
	}
	gen, size := pin.st.gen, f.g.NumNodes()
	sg, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Arcs) < 3 {
		t.Fatalf("subgraph of %d arcs exercises nothing", len(sg.Arcs))
	}
	// Each path, what makes the next explain take it, its object ceiling
	// and its polls: entry and each Eq. 10 iteration, for a derive after
	// the forward closure as well, and for a build after the backward
	// search too.
	paths := []struct {
		name    string
		before  func()
		objects float64
		polls   int
	}{
		{"built", forgetter(pin, res, f.ids["v7"], DefaultExplain()), 11, 3 + sg.Iterations},
		{"reused", func() {}, 4, 1 + sg.Iterations},
		{"derived", decodedForgetter(pin, res, f.ids["v7"], DefaultExplain()), 7, 2 + sg.Iterations},
	}
	if !raceEnabled {
		for _, p := range paths {
			n := testing.AllocsPerRun(100, func() {
				p.before()
				if sg, err := run(context.Background()); err == nil {
					sg.ExplainedScore()
				}
			})
			if n > p.objects {
				t.Errorf("one explain that is %s allocates %v objects, want <= %v", p.name, n, p.objects)
			}
		}
		explainBytesCeiling(t)
	}

	// take borrows the scratch the last explain handed back and checks
	// every entry is reset.
	take := func(when string) (*explainScratch, [5]int) {
		sc := gen.getExplainScratch(size)
		defer gen.putExplainScratch(sc)
		for v := 0; v < size; v++ {
			if sc.dist[v] != -1 || sc.local[v] != -1 {
				t.Fatalf("%s: node %d handed back with dist %d, local %d", when, v, sc.dist[v], sc.local[v])
			}
		}
		for w, word := range sc.mark {
			if word != 0 {
				t.Fatalf("%s: mark word %d handed back as %#x", when, w, word)
			}
		}
		if len(sc.back)+len(sc.kept)+len(sc.sel)+len(sc.rows)+len(sc.order) != 0 {
			t.Fatalf("%s: queues handed back non-empty", when)
		}
		return sc, [5]int{cap(sc.back), cap(sc.kept), cap(sc.sel), cap(sc.rows), cap(sc.order)}
	}
	// drain empties the pool and returns what it held.
	drain := func() []*explainScratch {
		var held []*explainScratch
		for sc, _ := gen.explainScratch.Get().(*explainScratch); sc != nil; sc, _ = gen.explainScratch.Get().(*explainScratch) {
			held = append(held, sc)
		}
		return held
	}
	for _, p := range paths {
		if p.name == "reused" {
			// With the pool empty, an explain that drew a scratch would
			// make one and hand it back (under -race the pool drops a
			// quarter of the puts, so a hundred draws leave some).
			held := drain()
			for i := 0; i < 100; i++ {
				if sg, err := run(context.Background()); err != nil || !sg.TopologyReused {
					t.Fatalf("explain %d: (%v, %v), want a reuse", i, sg, err)
				}
				if drawn := drain(); len(drawn) != 0 {
					t.Fatalf("reuse %d drew the pooled scratch", i)
				}
			}
			for _, sc := range held {
				gen.explainScratch.Put(sc)
			}
			continue
		}
		// A scratch that served only the other path may grow once here.
		p.before()
		if _, err := run(context.Background()); err != nil {
			t.Fatal(err)
		}
		prev, caps := take(fmt.Sprintf("after the first %s explain", p.name))
		same := 0
		for i := 0; i < 100; i++ {
			p.before()
			if sg, err := run(context.Background()); err != nil || sg.TopologyPath() != p.name {
				t.Fatalf("explain %d: (%v, %v), want %s", i, sg, err, p.name)
			}
			// The pool may hand out a fresh scratch (under -race it drops
			// puts), which its first explain grows; one that had served an
			// explain already must not have grown.
			sc, now := take(fmt.Sprintf("explain %d (%s)", i, p.name))
			if sc == prev && caps != ([5]int{}) {
				same++
				if now != caps {
					t.Fatalf("explain %d (%s) grew the pooled scratch: capacities %v -> %v", i, p.name, caps, now)
				}
			}
			prev, caps = sc, now
		}
		if same < 25 {
			t.Errorf("%s: the pool returned the same scratch %d times in 100", p.name, same)
		}
	}

	// An explain cancelled at any of its polls stores nothing in either
	// tier: after a build's cancellation both are empty, after a
	// derive's the decoded tier is, and the ball tier holds the bytes it
	// held; the next explain takes the same path again.
	for _, p := range paths {
		for n := 0; n < p.polls; n++ {
			p.before()
			builds, decoded, balls := gen.topologyBuilds.Load(), gen.topologies.Bytes(), gen.balls.Bytes()
			if sg, err := run(&countdown{Context: context.Background(), left: n}); err != context.Canceled || sg != nil {
				t.Fatalf("%s: cancelled at poll %d of %d: (%v, %v), want (nil, context.Canceled)", p.name, n, p.polls, sg, err)
			}
			take(fmt.Sprintf("a cancellation at poll %d (%s)", n, p.name))
			if gen.topologyBuilds.Load() != builds || gen.topologies.Bytes() != decoded || gen.balls.Bytes() != balls {
				t.Fatalf("%s: a cancellation at poll %d stored a topology", p.name, n)
			}
			if p.name != "reused" && gen.topologies.Len() != 0 || p.name == "built" && gen.balls.Len() != 0 {
				t.Fatalf("%s: a tier holds a topology after a cancellation at poll %d", p.name, n)
			}
			next, err := run(context.Background())
			if err != nil || next.TopologyPath() != p.name {
				t.Fatalf("%s: the explain after a cancellation at poll %d: (%v, %v)", p.name, n, next, err)
			}
			if !slices.Equal(next.h, sg.h) || !slices.Equal(next.Arcs, sg.Arcs) || next.Iterations != sg.Iterations {
				t.Fatalf("%s: the explain after a cancellation at poll %d differs from the first", p.name, n)
			}
		}
		// One poll more completes.
		p.before()
		if sg, err := run(&countdown{Context: context.Background(), left: p.polls}); err != nil || sg.TopologyPath() != p.name {
			t.Fatalf("%s: %d polls: (%v, %v), want a subgraph", p.name, p.polls, sg, err)
		}
	}
}

// TestExplainEachCtx: explaining feedback objects concurrently owes the
// one-by-one explains every bit, in targets' order, also when targets
// repeat and outnumber the goroutines; a failing target reports the
// first failure in targets' order, and a dead context its error.
func TestExplainEachCtx(t *testing.T) {
	pin := citationWeb(t, rand.New(rand.NewSource(5)), 300, 900).Pin()
	res := rankPinned(pin, ir.NewQuery("olap"))
	var targets []graph.NodeID
	for _, r := range res.TopK(12) {
		targets = append(targets, r.Node, r.Node)
	}
	subs, err := pin.ExplainEachCtx(context.Background(), res, targets, DefaultExplain())
	if err != nil || len(subs) != len(targets) {
		t.Fatalf("(%d subgraphs, %v), want %d", len(subs), err, len(targets))
	}
	for i, target := range targets {
		want, err := pin.ExplainCtx(context.Background(), res, target, DefaultExplain())
		if err != nil {
			t.Fatal(err)
		}
		if subs[i].Target != target || !slices.Equal(subgraphBits(subs[i]), subgraphBits(want)) {
			t.Fatalf("subgraph %d differs from the explain of %d alone", i, target)
		}
	}

	bad := slices.Clone(targets)
	bad[3], bad[7] = 1000, -1
	if subs, err := pin.ExplainEachCtx(context.Background(), res, bad, DefaultExplain()); subs != nil || err == nil || !strings.Contains(err.Error(), "target 1000 out of range") {
		t.Fatalf("(%v, %v), want the error of target 1000", subs, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if subs, err := pin.ExplainEachCtx(ctx, res, targets, DefaultExplain()); subs != nil || err != context.Canceled {
		t.Fatalf("(%v, %v), want context.Canceled", subs, err)
	}

	// The first target's topology is kept last, so when the decoded tier
	// must make room the others go first.
	gen := pin.st.gen
	gen.topologies.Clear()
	first, second := targets[0], targets[2]
	if _, err := pin.ExplainEachCtx(context.Background(), res, []graph.NodeID{first, second}, DefaultExplain()); err != nil {
		t.Fatal(err)
	}
	gen.topologies.Put("room", nil, gen.topologies.Budget()-gen.topologies.Bytes()+1)
	key := func(target graph.NodeID) string {
		return topologyKey(0, target, DefaultExplain().Radius, pin.st.snap.zeros, res.Base)
	}
	if _, ok := gen.topologies.Get(key(first)); !ok {
		t.Error("making room evicted the first target's topology")
	}
	if _, ok := gen.topologies.Get(key(second)); ok {
		t.Error("making room kept the second target's topology, not the first's")
	}
}

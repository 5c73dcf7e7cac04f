package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// subgraphBits is everything an explain outputs, as bit patterns: Nodes,
// every derived FlowArc field, the per-node state and the fixpoint run.
func subgraphBits(sg *Subgraph) []uint64 {
	out := []uint64{uint64(sg.Target), uint64(sg.Iterations), uint64(len(sg.Nodes)), uint64(len(sg.Arcs))}
	for i := range sg.Nodes {
		n := sg.At(i)
		out = append(out, uint64(n.Node), math.Float64bits(n.H), uint64(n.Dist), math.Float64bits(n.InFlow), math.Float64bits(n.OutFlow))
	}
	for _, a := range sg.FlowArcs() {
		out = append(out, uint64(a.From), uint64(a.To), uint64(a.Type), math.Float64bits(a.Rate), math.Float64bits(a.Flow0), math.Float64bits(a.Flow))
	}
	return out
}

// TestTopologyMemo counts builds through the generation's counter: a
// repeat explain and one after a publish that changes only non-zero
// rates reuse the topology, one after the decoded tier is evicted
// derives it from the target's ball, and both owe a fresh engine's
// build every bit; another base set for the same target derives too; a
// publish that zeroes a type misses both tiers, and another radius, the
// hub view and a corpus swap each build.
func TestTopologyMemo(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	olap, v7 := ir.NewQuery("olap"), f.ids["v7"]
	step := func(what string, pin *Pinned, m Mode, q *ir.Query, opts ExplainOptions, builds int, path string) *Subgraph {
		t.Helper()
		// A cold ranking: the same bits on every engine under the same rates.
		res := solveOne(pin, SolveSpec{Queries: []*ir.Query{q}, Mode: m, Cold: true})
		sg, err := pin.ExplainModeCtx(context.Background(), m, res, v7, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := pin.st.gen.topologyBuilds.Load(); got != int64(builds) || sg.TopologyPath() != path {
			t.Fatalf("%s: %d builds, topology %s; want %d, %s", what, got, sg.TopologyPath(), builds, path)
		}
		return sg
	}
	first := step("first", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "built")
	step("repeat", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "reused")

	scaled := f.rates.Clone()
	vec := scaled.Vector()
	for i := range vec {
		vec[i] *= 0.5
	}
	if err := scaled.SetVector(vec); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRates(scaled); err != nil {
		t.Fatal(err)
	}
	reused := step("non-zero publish", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "reused")
	if reused.h[0] == first.h[0] {
		t.Errorf("h(%d) = %v under both rates", reused.Nodes[0], reused.h[0])
	}
	e.Pin().EvictDecodedTopologies()
	derived := step("decoded tier evicted", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "derived")
	step("repeat after a derive", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "reused")
	fresh, err := NewEngine(f.g, scaled, Config{Rank: e.Corpus().opts})
	if err != nil {
		t.Fatal(err)
	}
	built := step("fresh engine", fresh.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "built")
	if !slices.Equal(subgraphBits(reused), subgraphBits(built)) {
		t.Errorf("reused explain differs from a fresh engine's build")
	}
	if !slices.Equal(subgraphBits(derived), subgraphBits(built)) {
		t.Errorf("derived explain differs from a fresh engine's build")
	}

	step("other radius", e.Pin(), ModeAuthority, olap, ExplainOptions{Radius: 2}, 2, "built")
	step("other base set", e.Pin(), ModeAuthority, ir.NewQuery("agrawal"), DefaultExplain(), 2, "derived")
	step("hub view", e.Pin(), ModeHub, olap, DefaultExplain(), 3, "built")
	zeroed := scaled.Clone()
	if err := zeroed.Set(f.edges["cites"], graph.Forward, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRates(zeroed); err != nil {
		t.Fatal(err)
	}
	step("zeroed type", e.Pin(), ModeAuthority, olap, DefaultExplain(), 4, "built")
	old := e.Pin().st.gen
	if _, err := e.SwapCorpus(e.Corpus(), zeroed, e.Generation()); err != nil {
		t.Fatal(err)
	}
	if gen := e.Pin().st.gen; gen.topologies.Len() != 0 || gen.balls.Len() != 0 {
		t.Fatalf("a swapped-in generation holds %d decoded topologies and %d balls", gen.topologies.Len(), gen.balls.Len())
	}
	step("corpus swap", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "built")
	if old.topologyBuilds.Load() != 4 || old.balls.Len() != 4 {
		t.Errorf("the swapped-out generation counts %d builds and %d balls, want 4 and 4", old.topologyBuilds.Load(), old.balls.Len())
	}
}

// TestTopologyKeyIgnoringZerosBites is the bite twin of the zeroed-type
// case: a memo key without the zero-rate set would hand the topology
// built before a type was zeroed to the explain after it, from the
// decoded tier, or the ball built before it to be restricted, from the
// ball tier; either keeps arcs the zeroed type no longer carries — not
// the subgraph a build under the new rates makes.
func TestTopologyKeyIgnoringZerosBites(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	olap, v7 := ir.NewQuery("olap"), f.ids["v7"]
	res := rankQ(e, olap)
	before := e.Pin()
	if _, err := before.ExplainCtx(context.Background(), res, v7, DefaultExplain()); err != nil {
		t.Fatal(err)
	}
	zeroed := f.rates.Clone()
	if err := zeroed.Set(f.edges["cites"], graph.Forward, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRates(zeroed); err != nil {
		t.Fatal(err)
	}
	pin := e.Pin()
	res = rankPinned(pin, olap)
	want, err := pin.ExplainCtx(context.Background(), res, v7, DefaultExplain())
	if err != nil || want.TopologyPath() != "built" {
		t.Fatalf("explain after zeroing a type: (%v, %v), want a build", want, err)
	}

	// The keys as they would be without the zero-rate set: the ones the
	// explain under the old rates stored, in both tiers.
	st, c := pin.st, pin.st.gen.corpus
	stale := topologyKey(0, v7, DefaultExplain().Radius, before.st.snap.zeros, res.Base)
	v, _ := st.gen.topologies.Get(stale)
	decoded, _ := v.(*topology)
	if decoded == nil {
		t.Fatal("the explain under the old rates kept no decoded topology")
	}
	b, _ := st.gen.balls.Get(stale[:ballKeyLen(before.st.snap.zeros)])
	ball, _ := b.(*topology)
	if ball == nil {
		t.Fatal("the explain under the old rates kept no ball")
	}
	sc := st.gen.getExplainScratch(c.g.NumNodes())
	derived := restrict(sc, ball, res.Base)
	st.gen.putExplainScratch(sc)
	for tier, topo := range map[string]*topology{"decoded": decoded, "ball": derived} {
		sc := st.gen.getExplainScratch(c.g.NumNodes())
		got, err := adjust(context.Background(), sc, c, st.snap.alpha, topo, res, DefaultExplain().withDefaults(), time.Now())
		st.gen.putExplainScratch(sc)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(subgraphBits(got), subgraphBits(want)) {
			t.Fatalf("a key without the zero-rate set explains the same subgraph from the %s tier: the zeroed-type case bites nothing", tier)
		}
	}
}

// naiveTopology is stage (i) of Figure 8 written out plainly over g,
// without a ball: a backward search for the distances, a forward search
// from the base-set nodes it reached over positive-rate arcs into the
// reached set, the target alone when nothing is kept, and the
// positive-rate arcs the kept nodes induce.
func naiveTopology(g *graph.Graph, alpha []float64, base []ir.ScoredDoc, target graph.NodeID, radius int) *topology {
	dist := map[graph.NodeID]int32{target: 0}
	for queue := []graph.NodeID{target}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		if radius > 0 && int(dist[v]) >= radius {
			continue
		}
		for _, a := range g.InArcs(v) {
			if _, seen := dist[a.To]; !seen && alpha[a.Type] != 0 {
				dist[a.To] = dist[v] + 1
				queue = append(queue, a.To)
			}
		}
	}
	kept := map[graph.NodeID]bool{}
	var queue []graph.NodeID
	for _, sd := range base {
		if v := graph.NodeID(sd.Doc); !kept[v] {
			if _, in := dist[v]; in {
				kept[v] = true
				queue = append(queue, v)
			}
		}
	}
	for ; len(queue) > 0; queue = queue[1:] {
		for _, a := range g.OutArcs(queue[0]) {
			if _, in := dist[a.To]; in && alpha[a.Type] != 0 && !kept[a.To] {
				kept[a.To] = true
				queue = append(queue, a.To)
			}
		}
	}
	if len(kept) == 0 {
		kept[target] = true
	}
	t := &topology{rowStart: []int32{0}}
	for v := range kept {
		t.nodes = append(t.nodes, v)
	}
	slices.Sort(t.nodes)
	start, out := g.ForwardCSR()
	for _, u := range t.nodes {
		t.dist = append(t.dist, dist[u])
		for k := start[u]; k < start[u+1]; k++ {
			if j, in := slices.BinarySearch(t.nodes, out[k].To); in && alpha[out[k].Type] != 0 {
				t.arcs = append(t.arcs, ArcRef{CSR: k, Head: int32(j)})
			}
		}
		t.rowStart = append(t.rowStart, int32(len(t.arcs)))
	}
	t.tgt, _ = slices.BinarySearch(t.nodes, target)
	return t
}

// TestBallTopologyRoundTrip: on random citation webs at radius 1–4 and
// unbounded, the first explain of a target builds its ball, and the
// explains of four other base sets derive from it — "olap"'s nodes; the
// target alone, which keeps only what the target reaches, less than the
// ball in some cases; every node, which keeps the whole ball and
// aliases it; and none, which keeps the target alone — each exactly the
// nodes, distances, rows, arcs and target position naiveTopology builds
// for its base set. Distances have no bound: the end of a chain of 300
// papers derives D(first) = 299 once its decoded topology is evicted.
func TestBallTopologyRoundTrip(t *testing.T) {
	closed := 0
	for seed := int64(1); seed <= 3; seed++ {
		e := citationWeb(t, rand.New(rand.NewSource(seed)), 300, 900)
		if seed == 3 {
			// Citations flowing one way only: a ball node need not be
			// reachable from the target.
			cites, _ := e.Graph().Schema().EdgeTypeByRole("cites")
			forward := e.Rates()
			if err := forward.Set(cites, graph.Backward, 0); err != nil {
				t.Fatal(err)
			}
			if err := e.SetRates(forward); err != nil {
				t.Fatal(err)
			}
		}
		pin := e.Pin()
		olap := rankPinned(pin, ir.NewQuery("olap"))
		every, alone := *olap, *olap
		every.Base, alone.Base = rankPinned(pin, ir.NewQuery("paper")).Base, nil
		if len(every.Base) != 300 {
			t.Fatalf("seed %d: \"paper\" names %d nodes, want all 300", seed, len(every.Base))
		}
		gen, g, alpha := pin.st.gen, pin.st.gen.corpus.g, pin.st.snap.alpha
		for _, radius := range []int{1, 2, 3, 4, 0} {
			for _, r := range olap.TopK(12) {
				opts := ExplainOptions{Radius: radius}
				self := *olap
				self.Base = []ir.ScoredDoc{{Doc: int32(r.Node), Score: 1}}
				var first *Subgraph
				for i, res := range []*RankResult{olap, olap, &every, &alone, &self} {
					if i == 1 {
						pin.EvictDecodedTopologies()
					}
					sg, err := pin.ExplainCtx(context.Background(), res, r.Node, opts)
					if err != nil {
						t.Fatal(err)
					}
					if path := map[bool]string{true: "built", false: "derived"}[i == 0]; sg.TopologyPath() != path {
						t.Fatalf("seed %d, radius %d, target %d, base set %d: topology %s, want %s", seed, radius, r.Node, i, sg.TopologyPath(), path)
					}
					key := topologyKey(0, r.Node, radius, pin.st.snap.zeros, res.Base)
					v, _ := gen.topologies.Get(key)
					b, _ := gen.balls.Get(key[:ballKeyLen(pin.st.snap.zeros)])
					got, ball := v.(*topology), b.(*topology)
					want := naiveTopology(g, alpha, res.Base, r.Node, radius)
					if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.dist, want.dist) || !slices.Equal(got.rowStart, want.rowStart) ||
						!slices.Equal(got.arcs, want.arcs) || got.tgt != want.tgt {
						t.Fatalf("seed %d, radius %d, target %d, base set %d: the topology differs from a plain stage (i)", seed, radius, r.Node, i)
					}
					if (got == ball) != (len(got.nodes) == len(ball.nodes)) {
						t.Fatalf("seed %d, radius %d, target %d, base set %d: %d of the ball's %d nodes kept, aliased %v",
							seed, radius, r.Node, i, len(got.nodes), len(ball.nodes), got == ball)
					}
					switch i {
					case 0:
						first = sg
					case 1:
						if !slices.Equal(subgraphBits(sg), subgraphBits(first)) {
							t.Fatalf("seed %d, radius %d, target %d: the derived explain differs from the built one", seed, radius, r.Node)
						}
					case 2:
						if got != ball {
							t.Fatalf("seed %d, radius %d, target %d: every node is the base set, yet the ball is not aliased", seed, radius, r.Node)
						}
					case 3:
						if len(got.nodes) != 1 {
							t.Fatalf("seed %d, radius %d, target %d: an empty base set keeps %d nodes", seed, radius, r.Node, len(got.nodes))
						}
					case 4:
						if got != ball {
							closed++
						}
					}
				}
			}
		}
	}

	if closed == 0 {
		t.Fatal("the target alone reached its whole ball in every case: nothing checks the closure")
	}

	// A chain of 300 papers, each citing the next: an unbounded explain
	// of the last from the first reaches distance 299.
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	const n = 300
	for i := 0; i < n; i++ {
		title := "paper"
		if i == 0 {
			title = "olap paper"
		}
		b.AddNode(paper, graph.Attr{Name: "Title", Value: title})
		if i > 0 {
			b.AddEdge(graph.NodeID(i-1), graph.NodeID(i), cites)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, 0.6)
	e, err := NewEngine(g, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pin := e.Pin()
	res := rankPinned(pin, ir.NewQuery("olap"))
	for i, path := range []string{"built", "reused", "derived"} {
		if i == 2 {
			pin.EvictDecodedTopologies()
		}
		sg, err := pin.ExplainCtx(context.Background(), res, n-1, ExplainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sg.Dist(0) != n-1 || sg.TopologyPath() != path {
			t.Fatalf("explain %d of the chain's end: D(first) = %d, topology %s; want %d, %s", i, sg.Dist(0), sg.TopologyPath(), n-1, path)
		}
	}
}

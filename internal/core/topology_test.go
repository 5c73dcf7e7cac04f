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
// unpacks it from the packed tier, and both owe a fresh engine's build
// every bit; a publish that zeroes a type misses both tiers, and
// another radius, another base set, the hub view and a corpus swap each
// build.
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
	unpacked := step("decoded tier evicted", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "unpacked")
	step("repeat after an unpack", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "reused")
	fresh, err := NewEngine(f.g, scaled, Config{Rank: e.Corpus().opts})
	if err != nil {
		t.Fatal(err)
	}
	built := step("fresh engine", fresh.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "built")
	if !slices.Equal(subgraphBits(reused), subgraphBits(built)) {
		t.Errorf("reused explain differs from a fresh engine's build")
	}
	if !slices.Equal(subgraphBits(unpacked), subgraphBits(built)) {
		t.Errorf("unpacked explain differs from a fresh engine's build")
	}

	step("other radius", e.Pin(), ModeAuthority, olap, ExplainOptions{Radius: 2}, 2, "built")
	step("other base set", e.Pin(), ModeAuthority, ir.NewQuery("agrawal"), DefaultExplain(), 3, "built")
	step("hub view", e.Pin(), ModeHub, olap, DefaultExplain(), 4, "built")
	zeroed := scaled.Clone()
	if err := zeroed.Set(f.edges["cites"], graph.Forward, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRates(zeroed); err != nil {
		t.Fatal(err)
	}
	step("zeroed type", e.Pin(), ModeAuthority, olap, DefaultExplain(), 5, "built")
	old := e.Pin().st.gen
	if _, err := e.SwapCorpus(e.Corpus(), zeroed, e.Generation()); err != nil {
		t.Fatal(err)
	}
	if gen := e.Pin().st.gen; gen.topologies.Len() != 0 || gen.packed.Len() != 0 {
		t.Fatalf("a swapped-in generation holds %d decoded and %d packed topologies", gen.topologies.Len(), gen.packed.Len())
	}
	step("corpus swap", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, "built")
	if old.topologyBuilds.Load() != 5 || old.packed.Len() != 5 {
		t.Errorf("the swapped-out generation counts %d builds and %d packed topologies, want 5 and 5", old.topologyBuilds.Load(), old.packed.Len())
	}
}

// TestTopologyKeyIgnoringZerosBites is the bite twin of the zeroed-type
// case: a memo key without the zero-rate set would hand the topology
// built before a type was zeroed to the explain after it, from either
// tier, which keeps arcs the zeroed type no longer carries — not the
// subgraph a build under the new rates makes.
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
	if err != nil || want.TopologyReused {
		t.Fatalf("explain after zeroing a type: (%v, %v), want a build", want, err)
	}

	// The key as it would be without the zero-rate set: the one the
	// explain under the old rates stored, in both tiers.
	st, c := pin.st, pin.st.gen.corpus
	stale := topologyKey(0, v7, DefaultExplain().Radius, before.st.snap.zeros, res.Base)
	v, _ := st.gen.topologies.Get(stale)
	decoded, _ := v.(*topology)
	if decoded == nil {
		t.Fatal("the explain under the old rates kept no decoded topology")
	}
	p, _ := st.gen.packed.Get(stale)
	packed, _ := p.([]byte)
	if packed == nil {
		t.Fatal("the explain under the old rates kept no packed topology")
	}
	sc := st.gen.getExplainScratch(c.g.NumNodes())
	start, out := c.g.ForwardCSR()
	unpacked := unpackTopology(sc, packed, start, out, v7)
	st.gen.putExplainScratch(sc)
	for tier, topo := range map[string]*topology{"decoded": decoded, "packed": unpacked} {
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

// TestPackedTopologyRoundTrip: on random citation webs at radius 1–4
// and unbounded, every built topology unpacks to exactly the nodes,
// distances, rows, arcs and target position it was packed from, in
// fewer bytes than its decoded entry; and a topology with a distance
// over 255 is kept decoded only, so once the decoded tier is evicted
// its next explain builds again.
func TestPackedTopologyRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pin := citationWeb(t, rand.New(rand.NewSource(seed)), 300, 900).Pin()
		res := rankPinned(pin, ir.NewQuery("olap"))
		gen, g := pin.st.gen, pin.st.gen.corpus.g
		start, out := g.ForwardCSR()
		for _, radius := range []int{1, 2, 3, 4, 0} {
			for _, r := range res.TopK(12) {
				opts := ExplainOptions{Radius: radius}
				if _, err := pin.ExplainCtx(context.Background(), res, r.Node, opts); err != nil {
					t.Fatal(err)
				}
				key := topologyKey(0, r.Node, radius, pin.st.snap.zeros, res.Base)
				v, _ := gen.topologies.Get(key)
				want := v.(*topology)
				p, ok := gen.packed.Get(key)
				if !ok {
					t.Fatalf("seed %d, radius %d, target %d: no packed topology", seed, radius, r.Node)
				}
				sc := gen.getExplainScratch(g.NumNodes())
				got := unpackTopology(sc, p.([]byte), start, out, r.Node)
				gen.putExplainScratch(sc)
				if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.dist, want.dist) || !slices.Equal(got.rowStart, want.rowStart) ||
					!slices.Equal(got.arcs, want.arcs) || got.tgt != want.tgt {
					t.Fatalf("seed %d, radius %d, target %d: the unpacked topology differs from the built one", seed, radius, r.Node)
				}
				if n := packedSize(key, p.([]byte)); n >= want.size(key) {
					t.Errorf("seed %d, radius %d, target %d: packed entry of %d bytes, decoded %d", seed, radius, r.Node, n, want.size(key))
				}
			}
		}
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
	for i, path := range []string{"built", "reused", "built"} {
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
		if pin.st.gen.packed.Len() != 0 {
			t.Fatalf("explain %d of the chain's end packed a distance of %d", i, n-1)
		}
	}
}

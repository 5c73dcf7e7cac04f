package core

import (
	"context"
	"math"
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
// rates reuse the topology, and owe a fresh engine's build every bit; a
// publish that zeroes a type, another radius, another base set, the hub
// view and a corpus swap each build.
func TestTopologyMemo(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	olap, v7 := ir.NewQuery("olap"), f.ids["v7"]
	step := func(what string, pin *Pinned, m Mode, q *ir.Query, opts ExplainOptions, builds int, reused bool) *Subgraph {
		t.Helper()
		// A cold ranking: the same bits on every engine under the same rates.
		res := solveOne(pin, SolveSpec{Queries: []*ir.Query{q}, Mode: m, Cold: true})
		sg, err := pin.ExplainModeCtx(context.Background(), m, res, v7, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := pin.st.gen.topologyBuilds.Load(); got != int64(builds) || sg.TopologyReused != reused {
			t.Fatalf("%s: %d builds, TopologyReused = %v; want %d, %v", what, got, sg.TopologyReused, builds, reused)
		}
		return sg
	}
	first := step("first", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, false)
	step("repeat", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, true)

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
	reused := step("non-zero publish", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, true)
	if reused.h[0] == first.h[0] {
		t.Errorf("h(%d) = %v under both rates", reused.Nodes[0], reused.h[0])
	}
	fresh, err := NewEngine(f.g, scaled, Config{Rank: e.Corpus().opts})
	if err != nil {
		t.Fatal(err)
	}
	built := step("fresh engine", fresh.Pin(), ModeAuthority, olap, DefaultExplain(), 1, false)
	if !slices.Equal(subgraphBits(reused), subgraphBits(built)) {
		t.Errorf("reused explain differs from a fresh engine's build")
	}

	step("other radius", e.Pin(), ModeAuthority, olap, ExplainOptions{Radius: 2}, 2, false)
	step("other base set", e.Pin(), ModeAuthority, ir.NewQuery("agrawal"), DefaultExplain(), 3, false)
	step("hub view", e.Pin(), ModeHub, olap, DefaultExplain(), 4, false)
	zeroed := scaled.Clone()
	if err := zeroed.Set(f.edges["cites"], graph.Forward, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRates(zeroed); err != nil {
		t.Fatal(err)
	}
	step("zeroed type", e.Pin(), ModeAuthority, olap, DefaultExplain(), 5, false)
	old := e.Pin().st.gen
	if _, err := e.SwapCorpus(e.Corpus(), zeroed, e.Generation()); err != nil {
		t.Fatal(err)
	}
	step("corpus swap", e.Pin(), ModeAuthority, olap, DefaultExplain(), 1, false)
	if old.topologyBuilds.Load() != 5 {
		t.Errorf("the swapped-out generation counts %d builds, want 5", old.topologyBuilds.Load())
	}
}

// TestTopologyKeyIgnoringZerosBites is the bite twin of the zeroed-type
// case: a memo key without the zero-rate set would hand the topology
// built before a type was zeroed to the explain after it, which keeps
// arcs the zeroed type no longer carries — not the subgraph a build
// under the new rates makes.
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
	// explain under the old rates stored.
	st, c := pin.st, pin.st.gen.corpus
	stale := topologyKey(0, v7, DefaultExplain().Radius, before.st.snap.zeros, res.Base)
	v, _ := st.gen.topologies.Get(stale)
	topo, _ := v.(*topology)
	if topo == nil {
		t.Fatal("the explain under the old rates kept no topology")
	}
	sc := st.gen.getExplainScratch(c.g.NumNodes())
	got, err := adjust(context.Background(), sc, c, st.snap.alpha, topo, res, DefaultExplain().withDefaults(), time.Now())
	st.gen.putExplainScratch(sc)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(subgraphBits(got), subgraphBits(want)) {
		t.Fatal("a key without the zero-rate set explains the same subgraph: the zeroed-type case bites nothing")
	}
}

package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// sameBits reports whether two vectors are Float64bits-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFeedbackRoundPublishesItsPin runs one round on the running
// example and holds its pin to the state it published: version V+1 and
// the reformulated rates, still so after a later publish moved the
// engine on. The round's subgraphs are ExplainEachCtx's at
// DefaultExplain, and a requery under its pin is the requery under a
// pin taken before the later publish.
func TestFeedbackRoundPublishesItsPin(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	ctx, q := context.Background(), ir.NewQuery("olap")
	pin := e.Pin()
	res := rankPinned(pin, q)
	ids := []graph.NodeID{f.ids["v7"], f.ids["v4"]}

	round, err := pin.FeedbackCtx(ctx, q, res, ids, []float64{1, 0.5}, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	v := pin.Version() + 1
	if round.Pin.Version() != v || e.RatesVersion() != v || round.Pin.Generation() != pin.Generation() {
		t.Fatalf("round pin at version %d generation %d, engine at %d; want %d, %d", round.Pin.Version(), round.Pin.Generation(), e.RatesVersion(), v, pin.Generation())
	}
	want := round.Reformulation.Rates.Vector()
	if !sameBits(round.Pin.Rates().Vector(), want) || !sameBits(e.Pin().Rates().Vector(), want) {
		t.Fatal("the published rates are not the reformulation's")
	}
	if sameBits(want, pin.Rates().Vector()) {
		t.Fatal("structure feedback left the rates where they were")
	}
	subs, err := pin.ExplainEachCtx(ctx, res, ids, DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	for i, sg := range round.Subgraphs {
		if sg.Target != ids[i] || sg.Iterations != subs[i].Iterations || len(sg.Arcs) != len(subs[i].Arcs) ||
			math.Float64bits(sg.ExplainedScore()) != math.Float64bits(subs[i].ExplainedScore()) {
			t.Errorf("round subgraph %d differs from ExplainEachCtx's", i)
		}
	}
	if round.ReformulateDur <= 0 {
		t.Error("stage (d) was not timed")
	}
	requery := func(p *Pinned) []float64 {
		return solveOne(p, SolveSpec{Queries: []*ir.Query{round.Reformulation.Query}, Inits: [][]float64{res.Scores}}).Scores
	}
	before := requery(e.Pin())

	later := f.rates.Clone()
	later.Set(f.edges["cites"], graph.Forward, 0.05)
	if err := e.SetRates(later); err != nil {
		t.Fatal(err)
	}
	if round.Pin.Version() != v || !sameBits(round.Pin.Rates().Vector(), want) {
		t.Fatalf("after a later publish the round's pin names version %d and other rates", round.Pin.Version())
	}
	if !sameBits(requery(round.Pin), before) {
		t.Error("a requery under the round's pin moved with the later publish")
	}
}

// TestFeedbackRoundOnStalePin runs a round on a pin that a publish, and
// then a corpus swap, has left behind: each returns ErrRatesConflict
// with the winning state as the round's pin, and nothing is published.
func TestFeedbackRoundOnStalePin(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	ctx, q := context.Background(), ir.NewQuery("olap")
	ids := []graph.NodeID{f.ids["v7"]}

	for _, overtake := range []struct {
		name string
		do   func(*Pinned) error
	}{
		{"publish", func(*Pinned) error {
			r := f.rates.Clone()
			r.Set(f.edges["by"], graph.Forward, 0.1)
			return e.SetRates(r)
		}},
		{"swap", func(pin *Pinned) error {
			_, err := e.SwapCorpus(NewCorpus(f.g, Config{}), f.rates, pin.Generation())
			return err
		}},
	} {
		pin := e.Pin()
		res := rankPinned(pin, q)
		if err := overtake.do(pin); err != nil {
			t.Fatal(err)
		}
		winner := e.Pin()
		round, err := pin.FeedbackCtx(ctx, q, res, ids, nil, StructureOnly())
		if !errors.Is(err, ErrRatesConflict) {
			t.Fatalf("%s: round on a stale pin: err = %v, want ErrRatesConflict", overtake.name, err)
		}
		if round.Pin.Version() != winner.Version() || round.Pin.Generation() != winner.Generation() {
			t.Errorf("%s: conflict names version %d generation %d, want the winner's %d, %d", overtake.name,
				round.Pin.Version(), round.Pin.Generation(), winner.Version(), winner.Generation())
		}
		if e.RatesVersion() != winner.Version() || !sameBits(e.Pin().Rates().Vector(), winner.Rates().Vector()) {
			t.Errorf("%s: the stale round published", overtake.name)
		}
	}
}

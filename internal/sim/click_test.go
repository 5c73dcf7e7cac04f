package sim

import (
	"context"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

func TestClickModelBasics(t *testing.T) {
	m := NewClickModel(7, 0.9, 0.9)
	presented := make([]rank.Ranked, 20)
	relevant := map[graph.NodeID]bool{}
	for i := range presented {
		presented[i] = rank.Ranked{Node: graph.NodeID(i)}
		if i%2 == 0 {
			relevant[graph.NodeID(i)] = true
		}
	}
	clicks := m.Simulate(presented, relevant)
	if len(clicks) == 0 {
		t.Fatal("no clicks with high probabilities")
	}
	for _, c := range clicks {
		if !relevant[c.Node] {
			t.Errorf("clicked irrelevant node %d", c.Node)
		}
		if c.Confidence <= 0 || c.Confidence > 1 {
			t.Errorf("confidence %v out of range", c.Confidence)
		}
	}
	// Deterministic with the same seed.
	m2 := NewClickModel(7, 0.9, 0.9)
	clicks2 := m2.Simulate(presented, relevant)
	if len(clicks) != len(clicks2) {
		t.Error("click model not deterministic")
	}
	// Helpers align.
	if len(Nodes(clicks)) != len(Confidences(clicks)) {
		t.Error("helper lengths differ")
	}
	// Bad parameters fall back to defaults.
	m3 := NewClickModel(1, -1, 2)
	if m3.PositionBias != 0.85 || m3.ClickProb != 0.8 {
		t.Errorf("defaults = %+v", m3)
	}
}

func TestClickModelPositionBias(t *testing.T) {
	// With strong position bias, top ranks accumulate far more clicks
	// across trials than deep ranks.
	presented := make([]rank.Ranked, 30)
	relevant := map[graph.NodeID]bool{}
	for i := range presented {
		presented[i] = rank.Ranked{Node: graph.NodeID(i)}
		relevant[graph.NodeID(i)] = true
	}
	m := NewClickModel(3, 0.7, 1.0)
	counts := make([]int, len(presented))
	for trial := 0; trial < 400; trial++ {
		for _, c := range m.Simulate(presented, relevant) {
			counts[c.Node]++
		}
	}
	if counts[0] <= counts[15] {
		t.Errorf("no position bias: rank0=%d rank15=%d", counts[0], counts[15])
	}
}

// TestImplicitFeedbackTrains closes the loop: click-through feedback
// with confidence weights drives ReformulateWeighted and still moves
// the rates toward the expert ground truth.
func TestImplicitFeedbackTrains(t *testing.T) {
	sys, user, paperType := testWorld(t)
	truth := user.TruthRates()
	q := ir.NewQuery("olap")
	relevant := user.Relevant(q)
	clicker := NewClickModel(11, 0.9, 0.95)

	pin := sys.Pin()
	res, err := solveOne(pin, core.SolveSpec{Queries: []*ir.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	screen := res.TopKOfType(sys.Pin().Corpus().Graph(), paperType, 15)
	clicks := clicker.Simulate(screen, relevant)
	if len(clicks) == 0 {
		t.Skip("no clicks at this scale")
	}
	var subs []*core.Subgraph
	for _, c := range clicks {
		sg, err := pin.ExplainCtx(context.Background(), res, c.Node, core.DefaultExplain())
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sg)
	}
	before := sys.Pin().Rates().Vector()
	ref, err := pin.ReformulateWeightedCtx(context.Background(), q, subs, Confidences(clicks), core.StructureOnly())
	if err != nil {
		t.Fatal(err)
	}
	afterCos := eval.CosineSimilarity(ref.Rates.Vector(), truth)
	beforeCos := eval.CosineSimilarity(before, truth)
	if afterCos <= beforeCos {
		t.Errorf("implicit feedback did not improve rates: %v -> %v", beforeCos, afterCos)
	}
}

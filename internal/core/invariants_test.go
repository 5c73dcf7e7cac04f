package core

import (
	"math"
	"math/rand"
	"testing"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// TestFlowConservationIdentity checks the sharp algebraic consequence
// of Equations 7–10: for every non-target node v of a (radius-
// unlimited) explaining subgraph,
//
//	O(v) = d · r^Q(v) · h(v)
//
// i.e. the adjusted out-flow equals the damped original score scaled by
// the reduction factor — the explaining subgraph is exactly "the
// original flows, discounted by what leaks away from the target".
func TestFlowConservationIdentity(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	for _, targetName := range []string{"v4", "v7", "v6", "v3"} {
		target := f.ids[targetName]
		sg, err := explain(e, res, target, ExplainOptions{Threshold: 1e-12, MaxIters: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if !sg.Converged {
			t.Fatalf("target %s: not converged", targetName)
		}
		d := 0.85
		for _, v := range sg.Nodes {
			if v == target {
				continue
			}
			want := d * res.Scores[v] * sg.H(v)
			got := sg.OutFlow(v)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("target %s: O(%d) = %v, want d·r·h = %v", targetName, v, got, want)
			}
		}
	}
}

// TestExplainOnCyclicSubgraph drives the Theorem 1 case: the explaining
// subgraph contains cycles through the target (v4 is both base-set
// member and target; authority loops v4 -> v6 -> v4) and the adjustment
// still converges to values in [0, 1].
func TestExplainOnCyclicSubgraph(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	sg, err := explain(e, res, f.ids["v4"], ExplainOptions{Radius: 2, Threshold: 1e-10, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !sg.Converged {
		t.Fatal("cycle through target broke convergence")
	}
	// The v4 -> v6 -> v4 cycle means v4 has outgoing arcs inside its
	// own explaining subgraph.
	hasOut := false
	for _, a := range sg.FlowArcs() {
		if a.From == f.ids["v4"] {
			hasOut = true
		}
	}
	if !hasOut {
		t.Error("expected arcs out of the target on the cycle")
	}
}

// TestExplainThresholdControlsIterations: a looser threshold converges
// in no more iterations than a tight one, and both end with h(target)=1.
func TestExplainThresholdControlsIterations(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	loose, err := explain(e, res, f.ids["v4"], ExplainOptions{Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := explain(e, res, f.ids["v4"], ExplainOptions{Threshold: 1e-12, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Iterations > tight.Iterations {
		t.Errorf("loose threshold took more iterations: %d vs %d", loose.Iterations, tight.Iterations)
	}
	if loose.H(f.ids["v4"]) != 1 || tight.H(f.ids["v4"]) != 1 {
		t.Error("h(target) drifted")
	}
	// Timings are recorded.
	if tight.BuildDuration <= 0 || tight.AdjustDuration <= 0 {
		t.Error("stage durations not recorded")
	}
}

// TestSubgraphNodeAuthority: the target's per-node authority uses
// d · in-flow (its out-flow is not in the subgraph), everyone else uses
// out-flow (Equation 11's footnote).
func TestSubgraphNodeAuthority(t *testing.T) {
	e, ids := chainFixture(t)
	res := rankQ(e, ir.NewQuery("start"))
	sg, err := explain(e, res, ids["t"], ExplainOptions{Threshold: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sg.NodeAuthority(ids["t"]), 0.85*sg.InFlow(ids["t"]); math.Abs(got-want) > 1e-12 {
		t.Errorf("target authority = %v, want %v", got, want)
	}
	if got, want := sg.NodeAuthority(ids["a"]), sg.OutFlow(ids["a"]); got != want {
		t.Errorf("interior authority = %v, want %v", got, want)
	}
}

// TestSelfLoopAndDuplicateEdges: the engine handles self-citations and
// parallel edges (the paper assumes them away "for simplicity"; a
// production system cannot).
func TestSelfLoopAndDuplicateEdges(t *testing.T) {
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	a := b.AddNode(paper, graph.Attr{Name: "Title", Value: "self olap"})
	c := b.AddNode(paper, graph.Attr{Name: "Title", Value: "other"})
	b.AddEdge(a, a, cites) // self loop
	b.AddEdge(a, c, cites)
	b.AddEdge(a, c, cites) // duplicate
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, 0.7)
	e, err := NewEngine(g, r, Config{Rank: rank.Options{Threshold: 1e-10, MaxIters: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	res := rankQ(e, ir.NewQuery("olap"))
	if !res.Converged {
		t.Fatal("did not converge with self loop")
	}
	// Equation 1: out-degree 3 for a's cites arcs, each carrying 0.7/3.
	// The duplicate edge doubles c's share.
	if res.Scores[c] <= 0 {
		t.Error("duplicate-edge target got no authority")
	}
	sg, err := explain(e, res, c, ExplainOptions{Threshold: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// Both parallel arcs appear in the subgraph.
	count := 0
	for _, arc := range sg.FlowArcs() {
		if arc.From == a && arc.To == c {
			count++
		}
	}
	if count != 2 {
		t.Errorf("parallel arcs in subgraph = %d, want 2", count)
	}
}

// TestExplainInvariantsWithBackwardRates reruns the random invariant
// suite with non-zero backward rates (denser, cyclic subgraphs).
func TestExplainInvariantsWithBackwardRates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	author := s.AddNodeType("Author")
	cites := s.MustAddEdgeType("cites", paper, paper)
	by := s.MustAddEdgeType("by", paper, author)
	for trial := 0; trial < 10; trial++ {
		b := graph.NewBuilder(s)
		nP, nA := 10+rng.Intn(15), 3+rng.Intn(5)
		var papers, authors []graph.NodeID
		for i := 0; i < nP; i++ {
			title := "topic"
			if rng.Intn(2) == 0 {
				title = "olap topic"
			}
			papers = append(papers, b.AddNode(paper, graph.Attr{Name: "Title", Value: title}))
		}
		for i := 0; i < nA; i++ {
			authors = append(authors, b.AddNode(author, graph.Attr{Name: "Name", Value: "someone"}))
		}
		for i := 0; i < 2*nP; i++ {
			b.AddEdge(papers[rng.Intn(nP)], papers[rng.Intn(nP)], cites)
		}
		for _, p := range papers {
			b.AddEdge(p, authors[rng.Intn(nA)], by)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		r := graph.NewRates(s)
		r.Set(cites, graph.Forward, 0.5)
		r.Set(cites, graph.Backward, 0.1)
		r.Set(by, graph.Forward, 0.3)
		r.Set(by, graph.Backward, 0.9)
		e, err := NewEngine(g, r, Config{Rank: rank.Options{Threshold: 1e-10, MaxIters: 3000}})
		if err != nil {
			t.Fatal(err)
		}
		res := rankQ(e, ir.NewQuery("olap"))
		target := papers[rng.Intn(nP)]
		sg, err := explain(e, res, target, ExplainOptions{Threshold: 1e-10, MaxIters: 3000})
		if err != nil {
			t.Fatal(err)
		}
		if !sg.Converged {
			t.Fatalf("trial %d: not converged", trial)
		}
		d := 0.85
		for _, v := range sg.Nodes {
			if v == target {
				continue
			}
			want := d * res.Scores[v] * sg.H(v)
			if math.Abs(sg.OutFlow(v)-want) > 1e-8 {
				t.Fatalf("trial %d: conservation violated at %d: %v vs %v",
					trial, v, sg.OutFlow(v), want)
			}
		}
	}
}

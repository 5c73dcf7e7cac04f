package sim

import (
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

func TestSelectActiveMechanics(t *testing.T) {
	sys, user, paperType := testWorld(t)
	q := ir.NewQuery("olap")
	pin := sys.Pin()
	res, err := solveOne(pin, core.SolveSpec{Queries: []*ir.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	relevant := user.Relevant(q)
	screen := res.TopKOfType(sys.Pin().Corpus().Graph(), paperType, 15)
	candidates := user.Judge(screen, relevant, 0)
	if len(candidates) < 3 {
		t.Skip("not enough relevant candidates at this scale")
	}

	nodes, subs, err := selectActive(pin, res, candidates, core.DefaultExplain(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || len(subs) != 3 {
		t.Fatalf("selected %d nodes, %d subgraphs", len(nodes), len(subs))
	}
	// Selected nodes are distinct, drawn from the candidates, and each
	// subgraph targets its node.
	seen := map[graph.NodeID]bool{}
	inCand := map[graph.NodeID]bool{}
	for _, c := range candidates {
		inCand[c] = true
	}
	for i, n := range nodes {
		if seen[n] {
			t.Errorf("node %d selected twice", n)
		}
		seen[n] = true
		if !inCand[n] {
			t.Errorf("node %d not a candidate", n)
		}
		if subs[i].Target != n {
			t.Errorf("subgraph %d targets %d, want %d", i, subs[i].Target, n)
		}
	}

	// Deterministic.
	nodes2, _, err := selectActive(pin, res, candidates, core.DefaultExplain(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if nodes[i] != nodes2[i] {
			t.Fatal("active selection is nondeterministic")
		}
	}

	// max larger than the candidate pool selects everything.
	all, _, err := selectActive(pin, res, candidates, core.DefaultExplain(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(candidates) {
		t.Errorf("selected %d of %d candidates", len(all), len(candidates))
	}
}

func TestRunSessionActivePolicy(t *testing.T) {
	sys, user, _ := testWorld(t)
	cfg := DefaultSession(core.StructureOnly())
	cfg.Iterations = 3
	cfg.Policy = ActiveFeedback
	res, err := RunSession(sys, user, ir.NewQuery("olap"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 4 {
		t.Fatalf("iterations = %d", len(res.Iters))
	}
	fed := 0
	for _, it := range res.Iters {
		fed += it.Feedback
		if it.Feedback > cfg.MaxFeedback {
			t.Errorf("fed back %d > max %d", it.Feedback, cfg.MaxFeedback)
		}
	}
	if fed == 0 {
		t.Error("active session never fed anything back")
	}
	// The training moved the rates.
	truth := user.TruthRates()
	cos := res.RateCosines(truth)
	moved := false
	for _, c := range cos[1:] {
		if c != cos[0] {
			moved = true
		}
	}
	if !moved {
		t.Errorf("active session never trained: %v", cos)
	}
}

func TestActiveVsPassiveBothComplete(t *testing.T) {
	// Smoke comparison: both policies finish and produce full curves on
	// the same world and query.
	for _, policy := range []FeedbackPolicy{PassiveFeedback, ActiveFeedback} {
		sys, user, _ := testWorld(t)
		cfg := DefaultSession(core.StructureOnly())
		cfg.Iterations = 2
		cfg.Policy = policy
		res, err := RunSession(sys, user, ir.NewQuery("mining"), cfg)
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		if len(res.Iters) != 3 {
			t.Fatalf("policy %d: %d iterations", policy, len(res.Iters))
		}
	}
}

package sim

import (
	"context"
	"math"
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

	nodes, err := selectActive(pin, res, candidates, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("selected %d nodes", len(nodes))
	}
	// Selected nodes are distinct and drawn from the candidates.
	seen := map[graph.NodeID]bool{}
	inCand := map[graph.NodeID]bool{}
	for _, c := range candidates {
		inCand[c] = true
	}
	for _, n := range nodes {
		if seen[n] {
			t.Errorf("node %d selected twice", n)
		}
		seen[n] = true
		if !inCand[n] {
			t.Errorf("node %d not a candidate", n)
		}
	}

	// The selection's explains kept the winners' topologies: the
	// session's round explains them by Eq. 10 alone, into the subgraphs
	// an explain that derives its topology afresh gives.
	ctx := context.Background()
	subs, err := pin.ExplainEachCtx(ctx, res, nodes, core.DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	pin.EvictDecodedTopologies()
	fresh, err := pin.ExplainEachCtx(ctx, res, nodes, core.DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	for i, sg := range subs {
		if !sg.TopologyReused || fresh[i].TopologyReused {
			t.Errorf("node %d: reused %v after selection, %v after eviction", nodes[i], sg.TopologyReused, fresh[i].TopologyReused)
		}
		if sg.Target != nodes[i] || sg.Iterations != fresh[i].Iterations || len(sg.Arcs) != len(fresh[i].Arcs) ||
			math.Float64bits(sg.ExplainedScore()) != math.Float64bits(fresh[i].ExplainedScore()) {
			t.Errorf("node %d: the reused explain differs from a fresh one", nodes[i])
		}
	}

	// Deterministic.
	nodes2, err := selectActive(pin, res, candidates, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if nodes[i] != nodes2[i] {
			t.Fatal("active selection is nondeterministic")
		}
	}

	// max larger than the candidate pool selects everything.
	all, err := selectActive(pin, res, candidates, 100)
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

package conformance

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// /v1/audit validated the way AURORA (PAPERS.md) validates influence:
// by deleting what was blamed. The audit ranks an explaining subgraph's
// arcs; here the edge under an arc is taken out of the world, the query
// re-solved at the tight options, and the target's score compared with
// what it was. EXPERIMENTS.md "Evidence" records the numbers the test
// logs.

const (
	auditWorlds  = 10 // × 3 terms × 3 targets = 90 trials
	auditTerms   = 3
	auditTargets = 3
	auditBudget  = 8
)

// scoreWithout rebuilds the world without the data edge under arc a
// (a backward arc runs against its edge) and returns target's re-solved
// score for q.
func (w *world) scoreWithout(t *testing.T, a core.AuditArc, q *ir.Query, target graph.NodeID) float64 {
	t.Helper()
	e := graph.Edge{From: a.From, To: a.To, Type: a.Type.EdgeType()}
	if a.Type.Dir() == graph.Backward {
		e.From, e.To = a.To, a.From
	}
	skip := slices.Index(w.edges, e)
	if skip < 0 {
		t.Fatalf("arc %+v has no edge in the world", a)
	}
	eng, err := core.NewEngine(w.build(t, w.g.Schema(), skip), w.rates, core.Config{Rank: tight})
	if err != nil {
		t.Fatal(err)
	}
	return solveOne(t, eng.Pin(), core.ModeAuthority, q, nil)[target]
}

// removalStats is what one pass over the audit worlds measured.
type removalStats struct {
	wins, trials     int       // (i): the blamed arc's removal moved the score more than a random arc's
	tauFlow, tauSens []float64 // (ii): per trial, Kendall τ of the re-solved |Δ| order against each field's order
}

// auditByRemoval runs the removal experiment. reorder, when non-nil,
// permutes the audit's arcs before they are read — the bites twin's
// lever.
func auditByRemoval(t *testing.T, reorder func([]core.AuditArc, *rand.Rand)) removalStats {
	t.Helper()
	var st removalStats
	for seed := int64(1); seed <= auditWorlds; seed++ {
		w := newWorld(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for _, ti := range rng.Perm(len(w.terms))[:auditTerms] {
			q := ir.NewQuery(w.terms[ti])
			res := rankOne(t, w.pin, core.ModeAuthority, q)
			for _, r := range res.TopK(auditTargets) {
				sg, err := w.pin.ExplainCtx(context.Background(), res, r.Node, core.DefaultExplain())
				if err != nil {
					t.Fatal(err)
				}
				if len(sg.Arcs) < 2 {
					t.Fatalf("seed %d %v target %d: subgraph of %d arcs leaves nothing to compare", seed, q, r.Node, len(sg.Arcs))
				}
				// Every arc, in audit order: the first auditBudget are
				// what AuditOf(sg, auditBudget) returns.
				arcs := core.AuditOf(sg, len(sg.Arcs)).Arcs
				if reorder != nil {
					reorder(arcs, rng)
				}
				moved := func(a core.AuditArc) float64 {
					return math.Abs(w.scoreWithout(t, a, q, r.Node) - r.Score)
				}
				top := arcs[:min(auditBudget, len(arcs))]
				delta := make([]float64, len(top))
				for i, a := range top {
					delta[i] = moved(a)
				}
				st.trials++
				if delta[0] > moved(arcs[1+rng.Intn(len(arcs)-1)]) {
					st.wins++
				}
				byDelta := orderBy(len(top), func(i int) float64 { return delta[i] })
				st.tauFlow = append(st.tauFlow, eval.KendallTau(orderBy(len(top), func(i int) float64 { return top[i].Flow }), byDelta))
				st.tauSens = append(st.tauSens, eval.KendallTau(orderBy(len(top), func(i int) float64 { return top[i].Sensitivity }), byDelta))
			}
		}
	}
	return st
}

// orderBy returns 0..n-1 by descending key (stable), as the node list
// eval.KendallTau compares.
func orderBy(n int, key func(int) float64) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(out, func(a, b graph.NodeID) int { return cmp.Compare(key(int(b)), key(int(a))) })
	return out
}

// TestAuditByRemoval: (i) removing the edge under the audit's first arc
// moves the target's re-solved score more than removing a uniformly
// drawn other subgraph arc's edge in at least 90 % of trials; (ii) over
// the audit's top 8, the order of the re-solved |Δ| follows Flow (what
// deleting an arc costs). Sensitivity — what nudging its rate buys — is
// logged beside it.
func TestAuditByRemoval(t *testing.T) {
	st := auditByRemoval(t, nil)
	flow, sens := eval.Mean(st.tauFlow), eval.Mean(st.tauSens)
	t.Logf("audit top arc beats a random subgraph arc in %d of %d removals; mean Kendall tau of |Δ| over the top %d: flow %.2f, sensitivity %.2f",
		st.wins, st.trials, auditBudget, flow, sens)
	if 10*st.wins < 9*st.trials {
		t.Errorf("the audit's first arc out-moved a random arc in %d of %d removals, want ≥ 90 %%", st.wins, st.trials)
	}
	if flow < 0.4 {
		t.Errorf("mean τ(flow, re-solved |Δ|) = %.2f, want ≥ 0.4", flow)
	}
}

// TestAuditByRemovalBites checks (i) can fail: with the audit order
// shuffled the "first" arc is itself a random arc and wins about half
// the time.
func TestAuditByRemovalBites(t *testing.T) {
	st := auditByRemoval(t, func(arcs []core.AuditArc, rng *rand.Rand) {
		rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	})
	t.Logf("shuffled audit: first arc beats a random arc in %d of %d removals", st.wins, st.trials)
	if 10*st.wins >= 9*st.trials {
		t.Errorf("a shuffled audit order still wins %d of %d removals", st.wins, st.trials)
	}
}

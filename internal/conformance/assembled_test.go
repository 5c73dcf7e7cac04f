package conformance

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// Assembled answers (DESIGN.md §6): the serving cache answers a
// multi-keyword query whose terms' vectors are resident with Σ_t γ_t·r_t
// over them instead of a fixpoint. By linearity that is the
// multi-keyword fixpoint up to rounding, so these rows hold it to the
// uncached multi-keyword solve in the ≤1e-12 class — the one class a
// cached path owes instead of bit identity — in both directions, as a
// single query, a batch item and a whole vector; and they hold explain
// and audit, which read the vector and nothing else about how it was
// made, over an assembled vector to the same over a solved one.

var directions = []core.Mode{core.ModeAuthority, core.ModeHub}

// makeResident asks every keyword of qs alone in direction m, so c holds
// each one's converged vector.
func makeResident(t *testing.T, c *cache.CachedEngine, pin *core.Pinned, m core.Mode, qs []*ir.Query) {
	t.Helper()
	for _, q := range qs {
		for _, term := range q.Terms() {
			res, err := c.RankModePinnedCtx(context.Background(), pin, ir.NewQuery(term), m)
			if err != nil {
				t.Fatal(err)
			}
			pin.Engine().Release(res)
		}
	}
}

// batch asks qs of c as one top-k batch in direction m.
func batch(t *testing.T, c *cache.CachedEngine, pin *core.Pinned, m core.Mode, qs []*ir.Query) []*cache.Answer {
	t.Helper()
	ks, modes := make([]int, len(qs)), make([]core.Mode, len(qs))
	for i := range ks {
		ks[i], modes[i] = topK, m
	}
	answers, err := c.QueryBatchModePinnedCtx(context.Background(), pin, qs, ks, modes)
	if err != nil {
		t.Fatal(err)
	}
	return answers
}

// assembled flattens answers that must have been assembled: a row whose
// answers were solved instead proves nothing about assembly.
func assembled(t *testing.T, answers []*cache.Answer) [][]float64 {
	t.Helper()
	out := make([][]float64, len(answers))
	for i, a := range answers {
		if a.Source != cache.SourceTerm {
			t.Fatalf("answer %d (%v) came from %q, not from term vectors", i, a.Query, a.Source)
		}
		out[i] = flatten(a.Results)
	}
	return out
}

// assembledRanks ranks qs whole in direction m under pin, over a cache
// that holds their keywords' vectors, and checks no kernel ran for them.
func assembledRanks(t *testing.T, eng *core.Engine, pin *core.Pinned, m core.Mode, qs []*ir.Query) []*core.RankResult {
	t.Helper()
	c := cache.New(eng, cache.Options{})
	makeResident(t, c, pin, m, qs)
	before := c.Stats().Computes
	out := make([]*core.RankResult, len(qs))
	for i, q := range qs {
		res, err := c.RankModePinnedCtx(context.Background(), pin, q, m)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	if n := c.Stats().Computes - before; n != 0 {
		t.Fatalf("%d kernel solves ranking %d queries whose terms were resident", n, len(qs))
	}
	return out
}

// explainAndAudit explains, for each ranking, its best node, its
// topK-th and the world's last node at the paper's setting and at a
// tight one, and audits each whole subgraph. The audit is compared in
// (From, To, Type) and node order, not in its ranked order: two arcs
// whose sensitivities tie up to rounding may rank either way round
// under two vectors equal to 1e-12.
func explainAndAudit(t *testing.T, w *world, m core.Mode, rs []*core.RankResult) [][]float64 {
	t.Helper()
	var out [][]float64
	for _, res := range rs {
		top := res.TopK(topK)
		for _, target := range []graph.NodeID{top[0].Node, top[len(top)-1].Node, graph.NodeID(w.g.NumNodes() - 1)} {
			for _, opts := range []core.ExplainOptions{core.DefaultExplain(), {Threshold: 1e-12, MaxIters: 1000}} {
				sg := explainOne(t, context.Background(), w.pin, m, explainCase{res, target, opts})
				a := core.AuditOf(sg, len(sg.Arcs))
				slices.SortFunc(a.Arcs, func(x, y core.AuditArc) int {
					return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To), cmp.Compare(x.Type, y.Type))
				})
				slices.SortFunc(a.Nodes, func(x, y core.AuditNode) int { return cmp.Compare(x.Node, y.Node) })
				out = append(append(out, flattenSubgraph(sg)...), flattenAudit(a.Arcs, a.Nodes, a.TotalArcs, a.TotalNodes)...)
			}
		}
	}
	return out
}

// residualsAt is what the serving-options row compares: for each
// ranking, its one-sweep Equation 4 residual ‖F(r) − r‖₁ under the
// query's own jump on the direction's graph, raised to threshold when
// it is below — so the row reads threshold exactly when every residual
// is at most threshold.
func residualsAt(w *world, m core.Mode, pin *core.Pinned, rs []*core.RankResult, threshold float64) [][]float64 {
	g := w.g
	if m == core.ModeHub {
		g = g.Reversed()
	}
	out := make([][]float64, len(rs))
	for i, res := range rs {
		jump := make([]float64, g.NumNodes())
		for _, sd := range res.Base {
			jump[sd.Doc] = sd.Score
		}
		var residual float64
		o := pin.Corpus().Options()
		o.Threshold, o.MaxIters, o.Init = rank.ZeroThreshold, 1, res.Scores
		o.Observe = func(_ int, r float64) { residual = r }
		rank.Iterate(g, w.rates.Vector(), jump, o, nil, nil)
		out[i] = []float64{math.Max(residual, threshold)}
	}
	return out
}

func assembledRows(w *world) []path {
	qs := w.linearityQueries()
	var rows []path
	for _, m := range directions {
		m := m
		uncached := singles(w.pin, m, qs)
		uncachedTopK := func(t *testing.T) [][]float64 {
			out := uncached(t)
			for i := range out {
				out[i] = topKOf(out[i])
			}
			return out
		}
		rows = append(rows,
			path{fmt.Sprintf("%s assembled single query (terms resident) vs uncached multi-keyword solve", m), within1e12,
				func(t *testing.T) [][]float64 {
					c := cache.New(w.eng, cache.Options{})
					makeResident(t, c, w.pin, m, qs)
					answers := make([]*cache.Answer, len(qs))
					for i, q := range qs {
						a, err := c.QueryModePinnedCtx(context.Background(), w.pin, q, topK, m)
						if err != nil {
							t.Fatal(err)
						}
						answers[i] = a
					}
					return assembled(t, answers)
				}, uncachedTopK},
			// Cold, the batch solves the keywords it lacks in its own solve
			// before it assembles; then again with every keyword resident.
			path{fmt.Sprintf("%s assembled batch item (terms gathered, terms resident) vs uncached multi-keyword solve", m), within1e12,
				func(t *testing.T) [][]float64 {
					cold := assembled(t, batch(t, cache.New(w.eng, cache.Options{}), w.pin, m, qs))
					c := cache.New(w.eng, cache.Options{})
					makeResident(t, c, w.pin, m, qs)
					return append(cold, assembled(t, batch(t, c, w.pin, m, qs))...)
				}, twice(uncachedTopK)},
			path{fmt.Sprintf("%s assembled vector (terms resident) vs uncached multi-keyword solve", m), within1e12,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, res := range assembledRanks(t, w.eng, w.pin, m, qs) {
						out = append(out, res.Scores)
					}
					return out
				}, uncached},
			path{fmt.Sprintf("%s explain and audit over an assembled vector vs over a solved one", m), within1e12,
				func(t *testing.T) [][]float64 {
					return explainAndAudit(t, w, m, assembledRanks(t, w.eng, w.pin, m, qs))
				},
				func(t *testing.T) [][]float64 {
					rs := make([]*core.RankResult, len(qs))
					for i, q := range qs {
						rs[i] = rankOne(t, w.pin, m, q)
					}
					return explainAndAudit(t, w, m, rs)
				}},
		)
	}
	// At the serving options (the paper's threshold, not the worlds'
	// tight one) each term vector r_t left the kernel after a sweep that
	// moved it by less than the threshold, so its own residual
	// ‖d·A·(that move)‖₁ is below it too (authority columns of A sum to
	// at most 1). Equation 4 is linear in (r, jump) and Σγ_t = 1, so the
	// assembled vector's residual is at most the γ-weighted mean of its
	// terms'. (Hub's Aᵀ has no such column bound, so hub gets no row.)
	rows = append(rows, path{"authority assembled vector at the serving options: one-sweep Eq. 4 residual ≤ Threshold", bitIdentical,
		func(t *testing.T) [][]float64 {
			eng, err := core.NewEngine(w.g, w.rates, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pin := eng.Pin()
			rs := assembledRanks(t, eng, pin, core.ModeAuthority, qs)
			return residualsAt(w, core.ModeAuthority, pin, rs, pin.Corpus().Options().Threshold)
		},
		func(t *testing.T) [][]float64 {
			out := make([][]float64, len(qs))
			for i := range out {
				out[i] = []float64{rank.Options{}.Normalized().Threshold}
			}
			return out
		}})
	return rows
}

// TestAssembledBites checks the assembled rows can fail: an assembled
// vector with its first term's γ skewed by 1 % — r + 0.01·γ₀·r₀ — leaves
// the ≤1e-12 class against the multi-keyword solve on every query, in
// both directions.
func TestAssembledBites(t *testing.T) {
	w := newWorld(t, 1)
	ix := w.pin.Corpus().Index()
	qs := w.linearityQueries()
	for _, m := range directions {
		for i, res := range assembledRanks(t, w.eng, w.pin, m, qs) {
			q := qs[i]
			terms, weights := q.Terms(), q.Weights()
			mass := make([]float64, len(terms))
			total := 0.0
			for j, term := range terms {
				single := ir.NewQuery(term)
				single.SetWeight(term, weights[j])
				for _, sd := range ix.BaseSet(single) {
					mass[j] += sd.Score
				}
				total += mass[j]
			}
			first := solveOne(t, w.pin, m, ir.NewQuery(terms[0]), nil)
			want := solveOne(t, w.pin, m, q, nil)
			bites := false
			for v, x := range res.Scores {
				skewed := x + 0.01*mass[0]/total*first[v]
				bites = bites || !within1e12.agrees(skewed, want[v])
			}
			if !bites {
				t.Errorf("%s %v: γ skewed by 1 %% still within %s", m, q, within1e12)
			}
		}
	}
}

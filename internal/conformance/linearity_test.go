package conformance

import (
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
)

// Fixpoint linearity (paper §6.2, [BHP04]): the Equation 4 fixpoint is
// linear in the jump vector, and a multi-keyword base distribution is
// the convex combination Σ_t γ_t·ŝ_t of its terms' base distributions,
// γ_t = Z_t / Σ Z with Z_t the term's unnormalized base mass. So the
// multi-keyword scores are Σ_t γ_t·r_t over the single-term fixpoints —
// what makes per-term vectors (the serving cache's, the profile basis's)
// reusable across queries.

// linearityQueries are the world's multi-keyword queries, each at unit
// weights and at the weights it was drawn with (a content reformulation's
// shape).
func (w *world) linearityQueries() []*ir.Query {
	var out []*ir.Query
	for _, q := range w.queries {
		if q.Len() > 1 {
			out = append(out, ir.NewQuery(q.Terms()...), q)
		}
	}
	return out
}

// combineTerms returns Σ_t γ_t·r_t for q, with the first term's γ scaled
// by skew (1 = the property as stated). Z_t is read off Index.BaseSet of
// the term alone at its weight in q, so the query-side BM25 factor is the
// index's own at any k3.
func combineTerms(t *testing.T, w *world, q *ir.Query, skew float64) []float64 {
	t.Helper()
	terms, weights := q.Terms(), q.Weights()
	gamma := make([]float64, len(terms))
	total := 0.0
	for i, term := range terms {
		single := ir.NewQuery(term)
		single.SetWeight(term, weights[i])
		for _, sd := range w.pin.Corpus().Index().BaseSet(single) {
			gamma[i] += sd.Score
		}
		total += gamma[i]
	}
	gamma[0] *= skew
	out := make([]float64, w.g.NumNodes())
	for i, term := range terms {
		if gamma[i] == 0 {
			continue
		}
		for v, x := range solveOne(t, w.pin, core.ModeAuthority, ir.NewQuery(term), nil) {
			out[v] += gamma[i] / total * x
		}
	}
	return out
}

func linearityRows(w *world) []path {
	qs := w.linearityQueries()
	combined := func(t *testing.T) [][]float64 {
		if len(qs) == 0 {
			t.Fatal("world has no multi-keyword query")
		}
		out := make([][]float64, len(qs))
		for i, q := range qs {
			out[i] = combineTerms(t, w, q, 1)
		}
		return out
	}
	return []path{
		{"Σ γ_t·r_t over single-term solves vs the multi-keyword solve", within1e12, combined,
			singles(w.pin, core.ModeAuthority, qs)},
		{"Σ γ_t·r_t over single-term solves vs dense oracle", within1e9, combined,
			func(t *testing.T) [][]float64 { return w.oracle(qs, false) }},
	}
}

// TestLinearityBites checks the linearity rows can fail: with one γ off
// by 1 % the combination leaves both rows' classes on every query.
func TestLinearityBites(t *testing.T) {
	w := newWorld(t, 1)
	for _, q := range w.linearityQueries() {
		skewed := combineTerms(t, w, q, 1.01)
		for _, ref := range []struct {
			class class
			want  []float64
		}{
			{within1e12, solveOne(t, w.pin, core.ModeAuthority, q, nil)},
			{within1e9, w.oracle([]*ir.Query{q}, false)[0]},
		} {
			bites := false
			for v := range skewed {
				bites = bites || !ref.class.agrees(skewed[v], ref.want[v])
			}
			if !bites {
				t.Errorf("%v: γ skewed by 1 %% still within %s", q, ref.class)
			}
		}
	}
}

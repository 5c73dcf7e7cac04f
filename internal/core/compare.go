package core

import (
	"context"
	"fmt"
	"sort"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// TypeFlow is one edge type's contribution to an explained score.
type TypeFlow struct {
	Type graph.TransferTypeID
	// Name is the human-readable transfer-type name.
	Name string
	// A and B are the adjusted authority flows arriving at the
	// respective objects over this edge type.
	A float64
	B float64
}

// Comparison answers "why is A ranked above B?" for a query: the score
// gap decomposed into per-edge-type authority arriving directly at each
// object, plus each object's base-set contribution. It is the natural
// comparative extension of the paper's single-object explanations — the
// same explaining subgraphs, read side by side.
type Comparison struct {
	Query  *ir.Query
	A, B   graph.NodeID
	ScoreA float64
	ScoreB float64
	// BaseA / BaseB are the random-jump contributions (1−d)·s(v): the
	// part of each score earned by CONTAINING the keywords rather than
	// receiving authority.
	BaseA float64
	BaseB float64
	// ByType lists the per-type direct inflows, sorted by descending
	// advantage of A (A − B).
	ByType []TypeFlow
	// SubA / SubB are the underlying explaining subgraphs.
	SubA *Subgraph
	SubB *Subgraph
}

// Compare explains the relative ranking of two objects under one
// converged result: it builds both explaining subgraphs and decomposes
// each object's authority intake by edge type.
func (e *Engine) Compare(res *RankResult, a, b graph.NodeID, opts ExplainOptions) (*Comparison, error) {
	pin := e.Pin()
	sgA, err := pin.ExplainCtx(context.Background(), res, a, opts)
	if err != nil {
		return nil, fmt.Errorf("core: compare: %w", err)
	}
	sgB, err := pin.ExplainCtx(context.Background(), res, b, opts)
	if err != nil {
		return nil, fmt.Errorf("core: compare: %w", err)
	}
	cmp := &Comparison{
		Query:  res.Query,
		A:      a,
		B:      b,
		ScoreA: res.Scores[a],
		ScoreB: res.Scores[b],
		SubA:   sgA,
		SubB:   sgB,
	}
	d := pin.Corpus().nopts.Damping
	for _, sd := range res.Base {
		if graph.NodeID(sd.Doc) == a {
			cmp.BaseA = (1 - d) * sd.Score
		}
		if graph.NodeID(sd.Doc) == b {
			cmp.BaseB = (1 - d) * sd.Score
		}
	}

	flows := map[graph.TransferTypeID]*TypeFlow{}
	get := func(t graph.TransferTypeID) *TypeFlow {
		if f, ok := flows[t]; ok {
			return f
		}
		f := &TypeFlow{Type: t, Name: pin.Corpus().g.Schema().TransferTypeName(t)}
		flows[t] = f
		return f
	}
	for _, arc := range sgA.Arcs {
		if arc.To == a {
			get(arc.Type).A += arc.Flow
		}
	}
	for _, arc := range sgB.Arcs {
		if arc.To == b {
			get(arc.Type).B += arc.Flow
		}
	}
	for _, f := range flows {
		cmp.ByType = append(cmp.ByType, *f)
	}
	sort.Slice(cmp.ByType, func(i, j int) bool {
		di := cmp.ByType[i].A - cmp.ByType[i].B
		dj := cmp.ByType[j].A - cmp.ByType[j].B
		if di != dj {
			return di > dj
		}
		return cmp.ByType[i].Type < cmp.ByType[j].Type
	})
	return cmp, nil
}

// Gap returns ScoreA − ScoreB.
func (c *Comparison) Gap() float64 { return c.ScoreA - c.ScoreB }

// DominantType returns the edge type contributing the largest share of
// A's advantage (zero value if there are no type flows).
func (c *Comparison) DominantType() TypeFlow {
	if len(c.ByType) == 0 {
		return TypeFlow{}
	}
	return c.ByType[0]
}

// String renders a short textual answer to "why is A above B".
func (c *Comparison) String() string {
	s := fmt.Sprintf("score %.4g vs %.4g (gap %.4g); base-set %.4g vs %.4g",
		c.ScoreA, c.ScoreB, c.Gap(), c.BaseA, c.BaseB)
	if len(c.ByType) > 0 {
		t := c.ByType[0]
		s += fmt.Sprintf("; biggest edge-type advantage: %s (%.4g vs %.4g)", t.Name, t.A, t.B)
	}
	return s
}

// TermShare is one query term's contribution to a node's ObjectRank2
// score.
type TermShare struct {
	Term  string
	Score float64
}

// DecomposeByTerm splits a node's ObjectRank2 score into per-query-term
// contributions. Because the fixpoint is linear in the jump
// distribution, the multi-keyword score is exactly the γ-weighted sum
// of single-term scores; this diagnostic runs one fixpoint per term
// (warm-started) and reports each term's share at the node, largest
// first. An empty result means no term reaches the node.
func (e *Engine) DecomposeByTerm(q *ir.Query, v graph.NodeID) ([]TermShare, error) {
	pin := e.Pin()
	c := pin.Corpus()
	if int(v) < 0 || int(v) >= c.g.NumNodes() {
		return nil, fmt.Errorf("core: decompose target %d out of range", v)
	}
	terms := q.Terms()
	weights := q.Weights()
	type part struct {
		term  string
		gamma float64
		score float64
	}
	var parts []part
	var singles []*ir.Query
	total := 0.0
	for i, t := range terms {
		w := weights[i]
		if w <= 0 {
			continue
		}
		single := ir.NewQuery(t)
		mass := 0.0
		for _, sd := range c.ix.BaseSet(single) {
			mass += sd.Score
		}
		if mass == 0 {
			continue
		}
		gamma := qtfSaturation(w) * mass
		parts = append(parts, part{term: t, gamma: gamma})
		singles = append(singles, single)
		total += gamma
	}
	results, err := pin.Solve(context.Background(), SolveSpec{Queries: singles})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		parts[i].score = res.Scores[v]
		e.Release(res)
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]TermShare, 0, len(parts))
	for _, p := range parts {
		out = append(out, TermShare{Term: p.term, Score: p.gamma / total * p.score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Term < out[j].Term
	})
	return out, nil
}

// qtfSaturation mirrors the index's query-side BM25 factor with the
// default k3.
func qtfSaturation(w float64) float64 {
	const k3 = 1000
	return (k3 + 1) * w / (k3 + w)
}

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

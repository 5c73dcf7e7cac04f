package core

import (
	"cmp"
	"context"

	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

// DefaultAuditBudget caps audit contributions when the caller does not
// choose a budget.
const DefaultAuditBudget = 16

// AuditOptions is empty: an audit always builds the DefaultExplain()
// subgraph, the paper's radius-3 one that /v1/explain shows for the
// same target. cmd/afqbench binds core.AuditOptions{} and its sources
// are frozen, so the type stays as an inert compile-compatibility
// parameter of AuditCtx.
type AuditOptions struct{}

// AuditArc is one explaining-subgraph arc ranked by how strongly the
// target's explained score responds to perturbing the arc's authority
// transfer rate — the AURORA-style "which edges move this ranking"
// question answered inside the paper's own flow machinery. Its two
// numbers answer two questions (EXPERIMENTS.md "Evidence" holds the
// removal experiment that tells them apart): Flow, what deleting the
// arc costs the target; Sensitivity, what nudging its rate buys.
type AuditArc struct {
	From graph.NodeID
	To   graph.NodeID
	Type graph.TransferTypeID
	// Rate and Flow mirror the FlowArc fields (Equation 1 rate, adjusted
	// Equation 7 flow). Flow is the authority the arc delivers to the
	// target, and so the predictor of how far the target's re-solved
	// score falls when the arc's edge is removed.
	Rate float64
	Flow float64
	// Sensitivity is ∂(explained score)/∂(arc rate) with the rest of the
	// subgraph frozen: the arc delivers h(To)·d·rate·r(From) to the
	// target, so the derivative is h(To)·d·r(From) = Flow/Rate. A
	// high-sensitivity arc is one whose rate perturbation moves the
	// target's score the most per unit of rate — the arc to re-weight,
	// not necessarily the arc whose loss hurts most.
	Sensitivity float64
}

// AuditNode aggregates arc sensitivities per source node: how strongly
// the target's score responds to uniformly perturbing the rates of the
// node's outgoing subgraph arcs.
type AuditNode struct {
	Node        graph.NodeID
	Sensitivity float64
	// Flow is the node's adjusted out-flow inside the subgraph
	// (Equation 6b) — the authority it actually forwards to the target.
	Flow float64
}

// Audit is the sensitivity ranking of one result node: the top-Budget
// arcs and nodes of its explaining subgraph ordered by score
// sensitivity to rate perturbation. At a pinned (generation,
// ratesVersion) the construction is fully deterministic — subgraph
// arcs are collected in ascending-node CSR order, sensitivities are
// exact derivatives of the frozen flow system, and ties break on
// (From, To, Type) — so two audits of the same target under the same
// pinned state are identical, which is what lets the HTTP layer promise
// byte-identical bodies.
type Audit struct {
	Target graph.NodeID
	// Score is the explained score: the adjusted authority arriving at
	// the target inside the subgraph.
	Score  float64
	Budget int
	// Arcs and Nodes are the top-Budget contributions, sensitivity
	// descending. TotalArcs and TotalNodes count the candidates before
	// truncation, so callers can tell a complete audit from a clipped
	// one: TotalArcs is every subgraph arc, TotalNodes every subgraph
	// node with at least one subgraph out-arc, the candidates for Nodes.
	// That is every node but the target, plus the target when a subgraph
	// arc leaves it (a cycle back to it, or its self-loops). /v1/audit's
	// totalNodes is len(Subgraph.Nodes) instead, which always counts the
	// target.
	Arcs       []AuditArc
	Nodes      []AuditNode
	TotalArcs  int
	TotalNodes int
	// Iterations and Converged report the Equation 10 fixpoint run.
	Iterations int
	Converged  bool
}

// AuditCtx ranks the explaining subgraph of target by score sensitivity
// to rate perturbation, under the pinned state and the given ranking
// mode. res must be a converged result for the same query, state, and
// mode (the serving layer obtains it through the cache or RankModeCtx).
// It audits the DefaultExplain() subgraph and keeps the top
// DefaultAuditBudget contributions; AuditOf takes any budget.
// Deadline-awareness is inherited from the explain stages: the BFS
// phases and the Eq. 10 fixpoint poll ctx, and the final ranking pass
// is linear in the subgraph.
func (p *Pinned) AuditCtx(ctx context.Context, m Mode, res *RankResult, target graph.NodeID, _ AuditOptions) (*Audit, error) {
	sg, err := p.ExplainModeCtx(ctx, m, res, target, DefaultExplain())
	if err != nil {
		return nil, err
	}
	return AuditOf(sg, DefaultAuditBudget), nil
}

// AuditOf derives the sensitivity ranking from an already-built
// subgraph (budget <= 0 means DefaultAuditBudget). The /v1/explain
// envelope uses it to attach a contributions[] block to a subgraph it
// has already paid for. It is one walk of the subgraph's rows: Nodes[i]'s out-arcs are
// one row of Arcs, in CSR order. A source's node entry is the row's
// sums the Equation 6 pass made in that order (it runs here if no read
// ran it before): its sensitivity and its Equation 6b flow O(v). Its arcs are derived only when the row's
// sensitivity sum reaches the bar: sensitivities are non-negative, so
// no partial sum rounds below one of its terms, and a row whose sum is
// below the bar holds no arc that could be admitted.
func AuditOf(sg *Subgraph, budget int) *Audit {
	if budget <= 0 {
		budget = DefaultAuditBudget
	}
	a := &Audit{
		Target:     sg.Target,
		Score:      sg.ExplainedScore(),
		Budget:     budget,
		TotalArcs:  len(sg.Arcs),
		Iterations: sg.Iterations,
		Converged:  sg.Converged,
	}
	top := rank.NewTop(min(budget, len(sg.Arcs)), func(x AuditArc) float64 { return x.Sensitivity }, compareAuditArcs)
	nodes := rank.NewTop(min(budget, len(sg.Nodes)), func(x AuditNode) float64 { return x.Sensitivity }, compareAuditNodes)
	sg.sums()
	d, alpha, h, arcs := sg.damping, sg.alpha, sg.h, sg.Arcs
	for i, r := range sg.score {
		lo, hi := sg.rowStart[i], sg.rowStart[i+1]
		if lo == hi {
			continue
		}
		a.TotalNodes++
		sens := sg.sens[i]
		if nodes.Admits(sens) {
			nodes.Offer(AuditNode{Node: sg.Nodes[i], Sensitivity: sens, Flow: sg.outFlow[i]})
		}
		if sens < top.Bar() {
			continue
		}
		for k := lo; k < hi; k++ {
			a := arcs[k]
			rate := a.rate(alpha)
			_, flow := arcFlows(d, rate, r, h[a.Head])
			if s := flow / rate; top.Admits(s) {
				fa := sg.arc(i, k)
				top.Offer(AuditArc{From: fa.From, To: fa.To, Type: fa.Type, Rate: fa.Rate, Flow: fa.Flow, Sensitivity: s})
			}
		}
	}
	a.Arcs, a.Nodes = top.Sorted(), nodes.Sorted()
	return a
}

// compareAuditArcs is the audit's arc order: sensitivity descending,
// then (From, To, Type), a strict total order.
func compareAuditArcs(x, y AuditArc) int {
	return cmp.Or(cmp.Compare(y.Sensitivity, x.Sensitivity), cmp.Compare(x.From, y.From),
		cmp.Compare(x.To, y.To), cmp.Compare(x.Type, y.Type))
}

// compareAuditNodes is the audit's node order: sensitivity descending,
// then Node.
func compareAuditNodes(x, y AuditNode) int {
	return cmp.Or(cmp.Compare(y.Sensitivity, x.Sensitivity), cmp.Compare(x.Node, y.Node))
}

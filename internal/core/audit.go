package core

import (
	"cmp"
	"context"
	"slices"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// DefaultAuditBudget caps audit contributions when the caller does not
// choose a budget.
const DefaultAuditBudget = 16

// AuditOptions control an audit: the contribution budget and the
// underlying explaining-subgraph construction.
type AuditOptions struct {
	// Budget caps the number of arc and node contributions returned —
	// the top-Budget of each by sensitivity. Zero means
	// DefaultAuditBudget.
	Budget int
	// Explain configures the subgraph build (radius, Eq. 10 threshold).
	// The zero value means DefaultExplain(): the paper's radius-3
	// subgraph, the one /v1/explain shows for the same target.
	Explain ExplainOptions
}

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
	Query  *ir.Query
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
	// RatesVersion and Generation stamp the pinned state the audit ran
	// under — the determinism key.
	RatesVersion uint64
	Generation   uint64
}

// AuditCtx ranks the explaining subgraph of target by score sensitivity
// to rate perturbation, under the pinned state and the given ranking
// mode. res must be a converged result for the same query, state, and
// mode (the serving layer obtains it through the cache or RankModeCtx).
// A zero opts.Explain audits the DefaultExplain() subgraph; an unbounded
// audit sets Radius 0 with another field, such as Threshold, non-zero.
// Deadline-awareness is inherited from the explain stages: the BFS
// phases and the Eq. 10 fixpoint poll ctx, and the final ranking pass
// is linear in the subgraph.
func (p *Pinned) AuditCtx(ctx context.Context, m Mode, res *RankResult, target graph.NodeID, opts AuditOptions) (*Audit, error) {
	if opts.Explain == (ExplainOptions{}) {
		opts.Explain = DefaultExplain()
	}
	sg, err := p.ExplainModeCtx(ctx, m, res, target, opts.Explain)
	if err != nil {
		return nil, err
	}
	a := AuditOf(sg, opts.Budget)
	a.RatesVersion = p.st.snap.version
	a.Generation = p.st.gen.num
	return a, nil
}

// AuditOf derives the sensitivity ranking from an already-built
// subgraph (budget <= 0 means DefaultAuditBudget), without the
// pinned-state stamps AuditCtx adds. The /v1/explain envelope uses it
// to attach a contributions[] block to a subgraph it has already paid
// for. It is one walk of the subgraph's rows: Nodes[i]'s out-arcs are
// one row of Arcs, in CSR order. A source's node entry is the row's
// sums the explain already made in that order: its sensitivity and its
// Equation 6b flow O(v). Its arcs are derived only when the row's
// sensitivity sum reaches the bar: sensitivities are non-negative, so
// no partial sum rounds below one of its terms, and a row whose sum is
// below the bar holds no arc that could be admitted.
func AuditOf(sg *Subgraph, budget int) *Audit {
	if budget <= 0 {
		budget = DefaultAuditBudget
	}
	a := &Audit{
		Target:     sg.Target,
		Query:      sg.Query,
		Score:      sg.ExplainedScore(),
		Budget:     budget,
		TotalArcs:  len(sg.Arcs),
		Iterations: sg.Iterations,
		Converged:  sg.Converged,
	}
	arcs := topBudget[AuditArc]{budget: budget, key: func(x AuditArc) float64 { return x.Sensitivity }, cmp: compareAuditArcs}
	nodes := topBudget[AuditNode]{budget: budget, key: func(x AuditNode) float64 { return x.Sensitivity }, cmp: compareAuditNodes}
	d, alpha, csr, h, refs := sg.damping, sg.alpha, sg.csr, sg.h, sg.Arcs
	for i, r := range sg.score {
		lo, hi := sg.rowStart[i], sg.rowStart[i+1]
		if lo == hi {
			continue
		}
		a.TotalNodes++
		sens := sg.sens[i]
		if nodes.admits(sens) {
			nodes.offer(AuditNode{Node: sg.Nodes[i], Sensitivity: sens, Flow: sg.outFlow[i]})
		}
		if arcs.barred && sens < arcs.barKey {
			continue
		}
		for k := lo; k < hi; k++ {
			ref := refs[k]
			rate := transferRate(alpha, &csr[ref.CSR])
			_, flow := arcFlows(d, rate, r, h[ref.Head])
			if s := flow / rate; arcs.admits(s) {
				fa := sg.arc(i, k)
				arcs.offer(AuditArc{From: fa.From, To: fa.To, Type: fa.Type, Rate: fa.Rate, Flow: fa.Flow, Sensitivity: s})
			}
		}
	}
	a.Arcs, a.Nodes = arcs.sorted(), nodes.sorted()
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

// topBudget keeps the budget first items, under the strict total order
// cmp, of everything offered to it, in O(budget) space. cmp's primary
// criterion is key, descending (in cmp.Compare's order, NaN last). An
// offer that does not come before the current budget-th item (the bar)
// is dropped, the rest are buffered, and a buffer of 2·budget is sorted
// and cut back to budget. The result equals the budget-long prefix of a
// full sort.
//
// Callers ask admits(key) before they build an item: once the bar is
// set, almost every offer is dropped there, on one float comparison,
// with neither the item built nor cmp called. A key equal to the bar's
// is admitted, and offer settles it with the full cmp.
type topBudget[T any] struct {
	budget int
	key    func(T) float64
	cmp    func(a, b T) int
	items  []T
	barred bool
	bar    T
	barKey float64
}

// admits reports whether an item whose primary key is k can still come
// before the bar. false is final: offer would drop the item too.
func (t *topBudget[T]) admits(k float64) bool {
	return !t.barred || !cmp.Less(k, t.barKey)
}

func (t *topBudget[T]) offer(x T) {
	if t.barred && t.cmp(x, t.bar) >= 0 {
		return
	}
	t.items = append(t.items, x)
	if len(t.items) >= 2*t.budget {
		t.sorted()
	}
}

// sorted returns the kept items in cmp order.
func (t *topBudget[T]) sorted() []T {
	slices.SortFunc(t.items, t.cmp)
	if t.budget > 0 && len(t.items) >= t.budget {
		t.items = t.items[:t.budget]
		t.barred, t.bar = true, t.items[t.budget-1]
		t.barKey = t.key(t.bar)
	}
	return t.items
}

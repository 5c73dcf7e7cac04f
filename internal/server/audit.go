package server

import (
	"net/http"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/obs"
)

// handleAudit serves GET /v1/audit?q=...&target=...[&mode=...][&budget=N]:
// the sensitivity ranking of one result node — the top-budget explaining
// arcs and nodes ordered by how strongly the target's score responds to
// perturbing each arc's authority transfer rate (core.AuditOf over the
// Section 4 explaining subgraph and the Eq. 10 adjustment). The subgraph
// is the one /v1/explain builds for the same request, at the paper's
// radius, so the two answers agree on totalArcs, totalNodes, score and
// contributions.
//
// The handler is mounted behind the admission guard, so it inherits the
// deadline-aware lifecycle: the solve, the BFS phases and the Eq. 10
// fixpoint all poll the request context, and an expired deadline
// answers 504 through writeCtxError. One pin covers parse → rank →
// audit → render, so the response's (generation, ratesVersion) stamps
// name exactly the state everything ran under — and at a pinned state
// repeated audits are byte-identical (the determinism contract).
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	t, ok := s.rankTarget(w, r)
	if !ok {
		return
	}
	q, rp, g := t.q, t.rp, t.pin.Corpus().Graph()
	sg, ok := s.explainTarget(w, r, t, "audit")
	if !ok {
		return
	}
	a := core.AuditOf(sg, rp.Budget)

	s.obs.auditTotal.With(string(rp.Mode)).Inc()
	s.obs.auditContributions.Observe(float64(len(a.Arcs)))
	if a.TotalArcs > len(a.Arcs) {
		s.obs.auditTruncated.Inc()
	}
	resp := AuditResponse{
		Node:          int64(a.Target),
		Query:         q.String(),
		Score:         a.Score,
		Mode:          string(rp.Mode),
		Budget:        a.Budget,
		TotalArcs:     a.TotalArcs,
		TotalNodes:    len(sg.Nodes),
		Converged:     a.Converged,
		Iterations:    a.Iterations,
		Generation:    t.pin.Generation(),
		RatesVersion:  t.pin.Version(),
		Contributions: contributions(g, a),
		Nodes:         nodeContributions(g, a),
	}
	obs.TraceFrom(r.Context()).Eventf("render", "contributions=%d", len(resp.Contributions))
	writeJSON(w, http.StatusOK, resp)
}

// contributions renders an audit's ranked arcs for the shared
// explain/audit envelope, resolving transfer-type names against the
// pinned generation's schema.
func contributions(g *graph.Graph, a *core.Audit) []Contribution {
	out := make([]Contribution, len(a.Arcs))
	for i, arc := range a.Arcs {
		out[i] = Contribution{
			From:        int64(arc.From),
			To:          int64(arc.To),
			Type:        g.Schema().TransferTypeName(arc.Type),
			Rate:        arc.Rate,
			Flow:        arc.Flow,
			Sensitivity: arc.Sensitivity,
		}
	}
	return out
}

// nodeContributions renders the per-node aggregation with display text
// read from the pinned generation's graph.
func nodeContributions(g *graph.Graph, a *core.Audit) []NodeContribution {
	out := make([]NodeContribution, len(a.Nodes))
	for i, n := range a.Nodes {
		out[i] = NodeContribution{
			Node:        int64(n.Node),
			Display:     g.Display(n.Node),
			Sensitivity: n.Sensitivity,
			Flow:        n.Flow,
		}
	}
	return out
}

package server

import (
	"authorityflow/internal/core"
	"authorityflow/internal/graph"
)

// auditEndpoint is GET /v1/audit?q=...&target=...[&mode=...][&budget=N]:
// the sensitivity ranking of one result node — the top-budget explaining
// arcs and nodes ordered by how strongly the target's score responds to
// perturbing each arc's authority transfer rate (core.AuditOf over the
// Section 4 explaining subgraph and the Eq. 10 adjustment). The subgraph
// is the one /v1/explain builds for the same request, at the paper's
// radius, so the two answers agree on totalArcs, totalNodes, score and
// contributions.
//
// The solve, the BFS phases and the Eq. 10 fixpoint all poll the
// request context, so an expired deadline answers 504. One pin covers
// parse → rank → audit → render, so the response's (generation,
// ratesVersion) stamps name exactly the state everything ran under — and
// at a pinned state repeated audits are byte-identical (the determinism
// contract).
var auditEndpoint = endpoint{pattern: "/v1/audit", guarded: true, query: true, contract: true,
	parse: (*Server).parseTarget, run: (*Server).runAudit}

func (s *Server) runAudit(rq *request) (reply, error) {
	sg, err := s.explainTarget(rq, "audit")
	if err != nil {
		return reply{}, err
	}
	rp, g := rq.rp, rq.g
	a := core.AuditOf(sg, rp.Budget)
	s.obs.auditTotal.With(string(rp.Mode)).Inc()
	s.obs.auditContributions.Observe(float64(len(a.Arcs)))
	if a.TotalArcs > len(a.Arcs) {
		s.obs.auditTruncated.Inc()
	}
	return reply{what: "contributions", n: len(a.Arcs), json: AuditResponse{
		Node:          int64(a.Target),
		Query:         rq.spelled,
		Score:         a.Score,
		Mode:          string(rp.Mode),
		Budget:        a.Budget,
		TotalArcs:     a.TotalArcs,
		TotalNodes:    len(sg.Nodes),
		Converged:     a.Converged,
		Iterations:    a.Iterations,
		Generation:    rq.pin.Generation(),
		RatesVersion:  rq.pin.Version(),
		Contributions: contributions(g, a),
		Nodes:         nodeContributions(g, a),
	}}, nil
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

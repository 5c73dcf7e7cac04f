package sim

import (
	"context"
	"sort"

	"authorityflow/internal/core"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
)

// FeedbackPolicy selects which judged-relevant results a session feeds
// back for reformulation.
type FeedbackPolicy int

const (
	// PassiveFeedback is the paper's protocol: the first relevant
	// results in rank order (what a user clicking top-down produces).
	PassiveFeedback FeedbackPolicy = iota
	// ActiveFeedback implements the future-work direction the paper
	// cites ([SZ05], "active feedback ... so that the system can learn
	// most from the feedback"): among the relevant results, pick the
	// set whose explaining subgraphs carry the most DIVERSE per-type
	// authority flows, so each fed-back object teaches the
	// structure-based reformulation something new about a different
	// edge type.
	ActiveFeedback
)

// selectActive greedily picks up to max feedback objects from the
// relevant candidates: the first is the one with the largest total
// explained flow; each next pick minimizes the cosine similarity of its
// per-type flow vector against the sum of the already-selected vectors.
// The explaining subgraphs are computed here and returned so the
// session does not explain the winners twice.
func selectActive(pin *core.Pinned, res *core.RankResult, candidates []graph.NodeID, opts core.ExplainOptions, max int) ([]graph.NodeID, []*core.Subgraph, error) {
	if max <= 0 || max > len(candidates) {
		max = len(candidates)
	}
	type cand struct {
		node  graph.NodeID
		sg    *core.Subgraph
		flows []float64
		total float64
	}
	nTypes := pin.Corpus().Graph().Schema().NumTransferTypes()
	var cs []cand
	for _, v := range candidates {
		sg, err := pin.ExplainCtx(context.TODO(), res, v, opts)
		if err != nil {
			return nil, nil, err
		}
		flows := make([]float64, nTypes)
		total := 0.0
		for _, a := range sg.FlowArcs() {
			flows[a.Type] += a.Flow
			total += a.Flow
		}
		cs = append(cs, cand{node: v, sg: sg, flows: flows, total: total})
	}
	// Seed with the strongest-flow candidate (deterministic tiebreak by
	// node ID via the stable pre-sort).
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].total != cs[j].total {
			return cs[i].total > cs[j].total
		}
		return cs[i].node < cs[j].node
	})

	selected := []cand{cs[0]}
	rest := cs[1:]
	sum := append([]float64(nil), cs[0].flows...)
	for len(selected) < max && len(rest) > 0 {
		bestIdx, bestSim := -1, 2.0
		for i, c := range rest {
			sim := eval.CosineSimilarity(sum, c.flows)
			if sim < bestSim || (sim == bestSim && bestIdx >= 0 && c.node < rest[bestIdx].node) {
				bestSim, bestIdx = sim, i
			}
		}
		pick := rest[bestIdx]
		selected = append(selected, pick)
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		for t := range sum {
			sum[t] += pick.flows[t]
		}
	}

	nodes := make([]graph.NodeID, len(selected))
	subs := make([]*core.Subgraph, len(selected))
	for i, c := range selected {
		nodes[i] = c.node
		subs[i] = c.sg
	}
	return nodes, subs, nil
}

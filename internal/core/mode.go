package core

import (
	"context"
	"fmt"

	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

// Mode selects the ranking direction of a read query. Authority is the
// paper's ObjectRank2 semantics — a node is important when important
// nodes point at it. Hub is the CheiRank dual solved on the
// direction-reversed graph — a node is important when it points at
// important nodes (the internal-linking / curation workload).
type Mode string

const (
	ModeAuthority Mode = "authority"
	ModeHub       Mode = "hub"
)

// ParseMode maps the wire-level mode parameter onto a Mode. The empty
// string is ModeAuthority — the whole pre-mode query surface keeps its
// meaning unchanged. This is the ONE validation point for the
// parameter: every HTTP handler (server and router alike) funnels
// through it so an invalid mode produces the same invalid_argument
// message everywhere.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeAuthority:
		return ModeAuthority, nil
	case ModeHub:
		return ModeHub, nil
	}
	return "", fmt.Errorf("mode must be one of authority, hub")
}

// hubCorpus returns the generation's direction-reversed corpus view,
// built on first use and kept for the generation's lifetime. The view
// shares the authority corpus's index, buffer pool, rank options and
// worker policy; only the graph (an O(1) CSR-role swap,
// graph.Reversed) differs.
func (gn *generation) hubCorpus() *Corpus {
	gn.hubOnce.Do(func() {
		hub := *gn.corpus
		hub.g = gn.corpus.g.Reversed()
		gn.hub = &hub
	})
	return gn.hub
}

// hubGlobalScores returns the generation's reversed-direction PageRank
// warm-start vector, computed on first use under snap's rates —
// exactly the vector globalScores would hold if the corpus had been
// built pre-reversed, which is what keeps hub-mode solves — the same
// kernel over the reversed view — bit-identical to authority solves on
// a pre-reversed corpus.
func (gn *generation) hubGlobalScores(snap *ratesSnapshot) []float64 {
	gn.hubGlobalOnce.Do(func() {
		hc := gn.hubCorpus()
		gn.hubGlobal = rank.PageRank(hc.g, snap.rates, hc.opts).Scores
	})
	return gn.hubGlobal
}

// ExplainModeCtx builds the explaining subgraph for a mode's ranking:
// the authority corpus for authority results, the reversed view for hub
// results (hub flows travel over reversed arcs, so the subgraph's
// From/To follow the hub direction). res must have been solved under
// the same pinned state AND the same mode.
func (p *Pinned) ExplainModeCtx(ctx context.Context, m Mode, res *RankResult, target graph.NodeID, opts ExplainOptions) (*Subgraph, error) {
	switch m {
	case ModeAuthority, "":
		return p.ExplainCtx(ctx, res, target, opts)
	case ModeHub:
		sg, m, err := explainOn(ctx, p.st, 1, p.st.gen.hubCorpus(), res, target, opts)
		m.keep()
		return sg, err
	}
	return nil, fmt.Errorf("core: unknown ranking mode %q", m)
}

package core

import (
	"context"
	"fmt"

	"authorityflow/internal/graph"
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

// viewModes are the modes in view order: view 0 is the generation's
// authority corpus, view 1 its direction-reversed hub view.
var viewModes = [2]Mode{ModeAuthority, ModeHub}

// viewOf maps a mode onto its view, the index of every per-direction
// state; the empty mode is ModeAuthority.
func viewOf(m Mode) (int, error) {
	if m == "" {
		return 0, nil
	}
	for v, vm := range viewModes {
		if m == vm {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: unknown ranking mode %q", m)
}

// ExplainModeCtx builds the explaining subgraph for a mode's ranking:
// the authority corpus for authority results, the reversed view for hub
// results (hub flows travel over reversed arcs, so the subgraph's
// From/To follow the hub direction). res must have been solved under
// the same pinned state AND the same mode.
func (p *Pinned) ExplainModeCtx(ctx context.Context, m Mode, res *RankResult, target graph.NodeID, opts ExplainOptions) (*Subgraph, error) {
	v, err := viewOf(m)
	if err != nil {
		return nil, err
	}
	sg, kept, err := explainOn(ctx, p.st, v, res, target, opts)
	kept.keep()
	return sg, err
}

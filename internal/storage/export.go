package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
)

// SubgraphJSON is the JSON shape of an exported explaining subgraph.
type SubgraphJSON struct {
	Target     int64             `json:"target"`
	Query      string            `json:"query"`
	Score      float64           `json:"explainedScore"`
	Converged  bool              `json:"converged"`
	Iterations int               `json:"iterations"`
	Nodes      []SubgraphNode    `json:"nodes"`
	Arcs       []SubgraphArcJSON `json:"arcs"`
}

// SubgraphNode is one exported node with its display string, reduction
// factor, distance from the target, and flow sums.
type SubgraphNode struct {
	ID      int64   `json:"id"`
	Label   string  `json:"label"`
	Display string  `json:"display"`
	H       float64 `json:"h"`
	Dist    int     `json:"dist"`
	InFlow  float64 `json:"inFlow"`
	OutFlow float64 `json:"outFlow"`
}

// SubgraphArcJSON is one exported arc with original and adjusted flows.
type SubgraphArcJSON struct {
	From  int64   `json:"from"`
	To    int64   `json:"to"`
	Type  string  `json:"type"`
	Flow0 float64 `json:"flow0"`
	Flow  float64 `json:"flow"`
}

// ExportJSON renders a whole explaining subgraph as JSON, every node
// and every arc — the complete export (GET /v1/explain answers with
// the budgeted BuildSubgraphJSON instead).
func ExportJSON(w io.Writer, g *graph.Graph, sg *core.Subgraph) error {
	out := BuildSubgraphJSON(g, sg, 0)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// BuildSubgraphJSON assembles the exported JSON struct without encoding
// it, for callers (the /v1/explain envelope) that embed the subgraph
// shape inside a larger response. Arcs are the top-budget arcs by
// adjusted flow, Subgraph.TopArcs order — all of them when budget is
// 0 — and Nodes the target plus those arcs' endpoints, ascending (every
// other node of a subgraph has an out-arc, so the complete export
// lists every node).
func BuildSubgraphJSON(g *graph.Graph, sg *core.Subgraph, budget int) SubgraphJSON {
	out := SubgraphJSON{
		Target:     int64(sg.Target),
		Score:      sg.ExplainedScore(),
		Converged:  sg.Converged,
		Iterations: sg.Iterations,
	}
	if sg.Query != nil {
		out.Query = sg.Query.String()
	}
	arcs := sg.TopArcs(budget)
	shown := []graph.NodeID{sg.Target}
	for _, a := range arcs {
		shown = append(shown, a.From, a.To)
		out.Arcs = append(out.Arcs, SubgraphArcJSON{
			From:  int64(a.From),
			To:    int64(a.To),
			Type:  g.Schema().TransferTypeName(a.Type),
			Flow0: a.Flow0,
			Flow:  a.Flow,
		})
	}
	slices.Sort(shown)
	for _, v := range slices.Compact(shown) {
		i, _ := sg.Index(v)
		n := sg.At(i)
		out.Nodes = append(out.Nodes, SubgraphNode{
			ID:      int64(v),
			Label:   g.LabelName(v),
			Display: g.Display(v),
			H:       n.H,
			Dist:    n.Dist,
			InFlow:  n.InFlow,
			OutFlow: n.OutFlow,
		})
	}
	return out
}

// ExportDOT renders an explaining subgraph in Graphviz DOT format: the
// target is double-circled, every arc is labeled with its explaining
// authority flow, and arc pen widths scale with flow so the
// high-authority paths the paper displays stand out.
func ExportDOT(w io.Writer, g *graph.Graph, sg *core.Subgraph) error {
	var b strings.Builder
	b.WriteString("digraph explain {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	for _, v := range sg.Nodes {
		shape := ""
		if v == sg.Target {
			shape = ", peripheries=2, style=bold"
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", v, dotLabel(g, v), shape)
	}
	arcs := sg.FlowArcs()
	maxFlow := 0.0
	for _, a := range arcs {
		if a.Flow > maxFlow {
			maxFlow = a.Flow
		}
	}
	for _, a := range arcs {
		width := 1.0
		if maxFlow > 0 {
			width = 1 + 3*a.Flow/maxFlow
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q, penwidth=%.2f];\n",
			a.From, a.To, fmt.Sprintf("%.2e", a.Flow), width)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// dotLabel renders a short multi-line node label.
func dotLabel(g *graph.Graph, v graph.NodeID) string {
	text := ""
	if as := g.Attrs(v); len(as) > 0 {
		text = as[0].Value
	}
	if len(text) > 32 {
		text = text[:32] + "…"
	}
	return fmt.Sprintf("%s %d\n%s", g.LabelName(v), v, text)
}

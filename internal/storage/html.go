package storage

import (
	"fmt"
	"html"
	"io"
	"strings"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
)

// ExportHTML renders an explaining subgraph as a self-contained HTML
// page with an inline SVG — the "display to the user" artifact the
// paper's web demo served (Section 4: "we generate and display an
// explaining subgraph"). Nodes are laid out in columns by distance
// from the target (target rightmost), arcs are drawn with width and
// opacity proportional to their explaining authority flow, and
// hovering a node or edge shows its exact numbers.
func ExportHTML(w io.Writer, g *graph.Graph, sg *core.Subgraph) error {
	const (
		colWidth  = 260
		rowHeight = 64
		boxW      = 200
		boxH      = 44
		margin    = 40
	)

	// Columns by distance from the target; the target (dist 0) goes to
	// the rightmost column.
	var byDist [][]graph.NodeID
	for i, v := range sg.Nodes { // ascending, so every column is too
		d := sg.At(i).Dist
		for len(byDist) <= d {
			byDist = append(byDist, nil)
		}
		byDist[d] = append(byDist[d], v)
	}
	maxDist := len(byDist) - 1
	maxRows := 0
	for _, col := range byDist {
		if len(col) > maxRows {
			maxRows = len(col)
		}
	}

	width := (maxDist+1)*colWidth + 2*margin
	height := maxRows*rowHeight + 2*margin
	pos := make(map[graph.NodeID][2]int, len(sg.Nodes))
	for d, col := range byDist {
		x := margin + (maxDist-d)*colWidth
		for i, v := range col {
			y := margin + i*rowHeight
			pos[v] = [2]int{x, y}
		}
	}

	arcs := sg.FlowArcs()
	maxFlow := 0.0
	for _, a := range arcs {
		if a.Flow > maxFlow {
			maxFlow = a.Flow
		}
	}

	var b strings.Builder
	queryStr := ""
	if sg.Query != nil {
		queryStr = sg.Query.String()
	}
	fmt.Fprintf(&b, `<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>Explaining subgraph — %s</title>
<style>
body { font-family: sans-serif; margin: 16px; }
.node rect { fill: #eef4fb; stroke: #4a7ab5; rx: 6; }
.node.target rect { fill: #fdf1dd; stroke: #c77f1e; stroke-width: 2.5; }
.node text { font-size: 11px; }
.arc { stroke: #4a7ab5; fill: none; marker-end: url(#arrow); }
.meta { color: #555; font-size: 13px; }
</style></head><body>
<h2>Explaining subgraph for %s</h2>
<p class="meta">query %s — %d nodes, %d arcs, explained score %.4g,
%d flow-adjustment iterations (converged: %v)</p>
<svg width="%d" height="%d" viewBox="0 0 %d %d">
<defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="8" refY="3" orient="auto">
<path d="M0,0 L8,3 L0,6 z" fill="#4a7ab5"/></marker></defs>
`,
		html.EscapeString(g.Display(sg.Target)),
		html.EscapeString(g.Display(sg.Target)),
		html.EscapeString(queryStr),
		len(sg.Nodes), len(sg.Arcs), sg.ExplainedScore(),
		sg.Iterations, sg.Converged,
		width, height, width, height)

	// Arcs first so boxes draw over them.
	for _, a := range arcs {
		p1, ok1 := pos[a.From]
		p2, ok2 := pos[a.To]
		if !ok1 || !ok2 {
			continue
		}
		w1, op := 1.0, 0.35
		if maxFlow > 0 {
			share := a.Flow / maxFlow
			w1 = 1 + 4*share
			op = 0.25 + 0.75*share
		}
		x1, y1 := p1[0]+boxW, p1[1]+boxH/2
		x2, y2 := p2[0], p2[1]+boxH/2
		if p1[0] == p2[0] { // same column (cycle): loop to the right edge
			x1 = p1[0] + boxW
			x2 = p2[0] + boxW
		}
		fmt.Fprintf(&b, `<path class="arc" d="M%d,%d C%d,%d %d,%d %d,%d" stroke-width="%.2f" opacity="%.2f"><title>%s: flow %.4g (original %.4g)</title></path>
`,
			x1, y1, (x1+x2)/2, y1, (x1+x2)/2, y2, x2, y2, w1, op,
			html.EscapeString(g.Schema().TransferTypeName(a.Type)), a.Flow, a.Flow0)
	}

	for i, v := range sg.Nodes {
		p, n := pos[v], sg.At(i)
		cls := "node"
		if v == sg.Target {
			cls = "node target"
		}
		label := g.LabelName(v)
		text := ""
		if as := g.Attrs(v); len(as) > 0 {
			text = as[0].Value
		}
		if len(text) > 30 {
			text = text[:30] + "…"
		}
		fmt.Fprintf(&b, `<g class="%s"><rect x="%d" y="%d" width="%d" height="%d"/>
<text x="%d" y="%d">%s %d</text>
<text x="%d" y="%d">%s</text>
<title>h=%.4g dist=%d in-flow=%.4g out-flow=%.4g</title></g>
`,
			cls, p[0], p[1], boxW, boxH,
			p[0]+8, p[1]+17, html.EscapeString(label), v,
			p[0]+8, p[1]+34, html.EscapeString(text),
			n.H, n.Dist, n.InFlow, n.OutFlow)
	}

	b.WriteString("</svg></body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

package core

import (
	"cmp"
	"slices"

	"authorityflow/internal/graph"
	"authorityflow/internal/rank"
)

// CompareFlow is the one order wherever arcs are ranked by adjusted
// flow — the top-budget selection of TopArcs, the full JSON export and
// TopPaths' adjacency: flow descending, then (From, To, Type), a strict
// total order so equal-flow arcs never sit in the sort's own order.
func CompareFlow(a, b FlowArc) int {
	return cmp.Or(cmp.Compare(b.Flow, a.Flow), cmp.Compare(a.From, b.From),
		cmp.Compare(a.To, b.To), cmp.Compare(a.Type, b.Type))
}

// TopArcs returns the budget arcs carrying the most adjusted flow, in
// CompareFlow order — the paper displays the top flow paths, not the
// whole radius-L subgraph. A budget <= 0 returns every arc.
//
// It walks the rows and derives an arc's FlowArc only when its flow is
// admitted. A whole row is skipped when its sum O(v) is below the bar:
// flows are non-negative, so no partial sum rounds below one of its
// terms and no flow of the row can be admitted either.
func (sg *Subgraph) TopArcs(budget int) []FlowArc {
	if budget <= 0 {
		budget = len(sg.Arcs)
	}
	top := rank.NewTop(min(budget, len(sg.Arcs)), arcFlow, CompareFlow)
	sg.sums()
	d, alpha, h, arcs := sg.damping, sg.alpha, sg.h, sg.Arcs
	for i, r := range sg.score {
		if sg.outFlow[i] < top.Bar() {
			continue
		}
		for k := sg.rowStart[i]; k < sg.rowStart[i+1]; k++ {
			a := arcs[k]
			if _, flow := arcFlows(d, a.rate(alpha), r, h[a.Head]); top.Admits(flow) {
				top.Offer(sg.arc(i, k))
			}
		}
	}
	return top.Sorted()
}

func arcFlow(a FlowArc) float64 { return a.Flow }

// Path is one authority-flow path from a base-set node to the target
// of an explaining subgraph, used when displaying an explanation: the
// paper keeps only the paths with high authority flow.
type Path struct {
	// Nodes lists the path's nodes from source (a base-set object) to
	// the target.
	Nodes []graph.NodeID
	// Arcs lists the traversed arcs, len(Nodes)-1 of them.
	Arcs []FlowArc
	// Flow is the path's bottleneck authority flow: the smallest
	// adjusted arc flow along it, the amount of authority the whole
	// path can be said to carry to the target.
	Flow float64
}

// topPathsExplored caps the number of partial paths the enumeration
// expands, keeping TopPaths interactive on dense subgraphs.
const topPathsExplored = 200000

// TopPaths enumerates simple paths from base-set sources to the target
// inside the subgraph and returns the k paths first in comparePaths
// order: highest bottleneck flow, ties broken by shorter length, then
// lexicographic node order, then the arcs in CompareFlow order. sources
// are typically the subgraph's base-set members; non-members are
// ignored.
func (sg *Subgraph) TopPaths(sources []graph.NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	// Adjacency over positive-flow arcs only, highest flow first so the
	// exploration budget goes to the promising paths.
	adj := make(map[graph.NodeID][]FlowArc, len(sg.Nodes))
	for _, a := range sg.FlowArcs() {
		if a.Flow > 0 {
			adj[a.From] = append(adj[a.From], a)
		}
	}
	for _, arcs := range adj {
		slices.SortFunc(arcs, CompareFlow)
	}
	// Paths much longer than the subgraph radius are unintuitive (the
	// paper's display rationale for limiting L) and explode the search
	// space, so bound the node count by the deepest distance plus a
	// small detour allowance.
	maxLen := int(slices.Max(sg.dist)) + 3
	if maxLen > len(sg.Nodes) {
		maxLen = len(sg.Nodes)
	}

	top := rank.NewTop(min(k, topPathsExplored), func(p Path) float64 { return p.Flow }, comparePaths)
	explored := 0
	onPath := make(map[graph.NodeID]bool)
	var nodes []graph.NodeID
	var arcs []FlowArc

	var dfs func(v graph.NodeID, bottleneck float64)
	dfs = func(v graph.NodeID, bottleneck float64) {
		if explored >= topPathsExplored {
			return
		}
		explored++
		if v == sg.Target && len(nodes) > 1 {
			if top.Admits(bottleneck) {
				top.Offer(Path{Nodes: slices.Clone(nodes), Arcs: slices.Clone(arcs), Flow: bottleneck})
			}
			return
		}
		if len(nodes) >= maxLen {
			return
		}
		for _, a := range adj[v] {
			if onPath[a.To] {
				continue
			}
			b := bottleneck
			if a.Flow < b {
				b = a.Flow
			}
			onPath[a.To] = true
			nodes = append(nodes, a.To)
			arcs = append(arcs, a)
			dfs(a.To, b)
			arcs = arcs[:len(arcs)-1]
			nodes = nodes[:len(nodes)-1]
			delete(onPath, a.To)
		}
	}

	seen := make(map[graph.NodeID]bool)
	for _, s := range sources {
		if seen[s] || !sg.Has(s) {
			continue
		}
		seen[s] = true
		onPath[s] = true
		nodes = append(nodes, s)
		dfs(s, inf)
		nodes = nodes[:0]
		delete(onPath, s)
	}
	return top.Sorted()
}

const inf = 1e308

// comparePaths is TopPaths' order, a strict total order: bottleneck flow
// descending, then fewer nodes, then the node sequence, then the arcs
// pairwise in CompareFlow order. The last criterion separates two paths
// over the same nodes that take parallel arcs of two transfer types (a
// mutual citation u⇄v gives u→v a forward and a backward arc), in the
// order the search finds them.
func comparePaths(a, b Path) int {
	return cmp.Or(cmp.Compare(b.Flow, a.Flow), cmp.Compare(len(a.Nodes), len(b.Nodes)),
		slices.Compare(a.Nodes, b.Nodes), slices.CompareFunc(a.Arcs, b.Arcs, CompareFlow))
}

// BaseSources returns the subgraph nodes that belong to the rank
// result's base set — the roots an explanation's paths start from.
func (sg *Subgraph) BaseSources(res *RankResult) []graph.NodeID {
	var out []graph.NodeID
	for _, sd := range res.Base {
		v := graph.NodeID(sd.Doc)
		if sg.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

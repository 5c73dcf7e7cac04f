package core

import (
	"cmp"
	"slices"
	"sort"

	"authorityflow/internal/graph"
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
	top := topBudget[FlowArc]{budget: budget, key: func(a FlowArc) float64 { return a.Flow }, cmp: CompareFlow}
	d, alpha, csr, h, arcs := sg.damping, sg.alpha, sg.csr, sg.h, sg.Arcs
	for i, r := range sg.score {
		if top.barred && sg.outFlow[i] < top.barKey {
			continue
		}
		for k := sg.rowStart[i]; k < sg.rowStart[i+1]; k++ {
			ref := arcs[k]
			if _, flow := arcFlows(d, transferRate(alpha, &csr[ref.CSR]), r, h[ref.Head]); top.admits(flow) {
				top.offer(sg.arc(i, k))
			}
		}
	}
	return top.sorted()
}

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
// inside the subgraph and returns the k paths with the highest
// bottleneck flow (ties broken by shorter length, then lexicographic
// node order for determinism). sources are typically the subgraph's
// base-set members; non-members are ignored.
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

	var out []Path
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
			out = append(out, Path{
				Nodes: append([]graph.NodeID(nil), nodes...),
				Arcs:  append([]FlowArc(nil), arcs...),
				Flow:  bottleneck,
			})
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

	sort.Slice(out, func(i, j int) bool {
		if out[i].Flow != out[j].Flow {
			return out[i].Flow > out[j].Flow
		}
		if len(out[i].Nodes) != len(out[j].Nodes) {
			return len(out[i].Nodes) < len(out[j].Nodes)
		}
		return lessNodeSeq(out[i].Nodes, out[j].Nodes)
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

const inf = 1e308

func lessNodeSeq(a, b []graph.NodeID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
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

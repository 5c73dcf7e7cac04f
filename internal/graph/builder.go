package graph

import (
	"fmt"
	"math"
)

// Builder accumulates nodes and edges and freezes them into an
// immutable Graph through FromEdges, the one construction path of
// every graph, built or loaded.
type Builder struct {
	schema *Schema
	labels []TypeID
	attrs  [][]Attr
	edges  []Edge
}

// NewBuilder returns a Builder for data graphs conforming to s.
func NewBuilder(s *Schema) *Builder {
	return &Builder{schema: s}
}

// AddNode appends a node with the given label and attribute tuple and
// returns its ID. Node IDs are dense and assigned in insertion order.
// Build checks the label.
func (b *Builder) AddNode(label TypeID, attrs ...Attr) NodeID {
	b.labels = append(b.labels, label)
	b.attrs = append(b.attrs, attrs)
	return NodeID(len(b.labels) - 1)
}

// AddEdge appends a typed data edge. Build checks its endpoints, its
// type and its conformance to that type.
func (b *Builder) AddEdge(from, to NodeID, t EdgeTypeID) {
	b.edges = append(b.edges, Edge{From: from, To: to, Type: t})
}

// Build freezes the accumulated nodes and edges into a Graph with
// FromEdges, and returns its first conformance error, if any.
func (b *Builder) Build() (*Graph, error) {
	return FromEdges(b.schema, b.labels, b.attrs, b.edges)
}

// FromEdges builds the authority transfer data graph of a data graph
// (Section 2 of the paper), taking ownership of labels and attrs and
// only reading edges. It validates conformance to the schema graph:
// every node's label must be a schema node, and every edge's endpoints
// must exist and carry the labels its edge type declares. Every data
// edge u->v of type e then yields a forward arc u->v of transfer type
// (e, Forward) and a backward arc v->u of type (e, Backward), each
// carrying the inverse per-type out-degree of its source (Equation 1).
//
// Each source's row is sorted by (type, target) with two stable
// counting passes and no comparison sort: one by target, which appends
// the twin of every arc to its row for the arcs' sources in ascending
// order, then one by transfer type within each row. Arcs that tie on
// both keys are equal, so the forward CSR depends on the edges as a
// multiset, not on their order.
func FromEdges(s *Schema, labels []TypeID, attrs [][]Attr, edges []Edge) (*Graph, error) {
	n := len(labels)
	if len(attrs) != n {
		return nil, fmt.Errorf("graph: %d labels but %d attribute tuples", n, len(attrs))
	}
	for v, l := range labels {
		if l < 0 || int(l) >= s.NumNodeTypes() {
			return nil, fmt.Errorf("graph: node %d has unknown label %d", v, l)
		}
	}
	numArcs := 2 * len(edges)
	if numArcs > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges overflow the CSR's int32 offsets", len(edges))
	}
	for _, e := range edges {
		switch {
		case e.From < 0 || int(e.From) >= n:
			return nil, fmt.Errorf("graph: edge references unknown source node %d", e.From)
		case e.To < 0 || int(e.To) >= n:
			return nil, fmt.Errorf("graph: edge references unknown target node %d", e.To)
		case e.Type < 0 || int(e.Type) >= s.NumEdgeTypes():
			return nil, fmt.Errorf("graph: edge references unknown edge type %d", e.Type)
		}
		if et := s.EdgeTypeInfo(e.Type); labels[e.From] != et.From || labels[e.To] != et.To {
			return nil, fmt.Errorf(
				"graph: edge %d->%d does not conform to type %s-%s->%s (got %s->%s)",
				e.From, e.To,
				s.TypeName(et.From), et.Role, s.TypeName(et.To),
				s.TypeName(labels[e.From]), s.TypeName(labels[e.To]))
		}
	}

	// A node is the source of one arc and the target of one arc per
	// data edge it touches, so both CSR halves share one offset array.
	degree := make([]int32, n+1)
	for _, e := range edges {
		degree[e.From]++
		degree[e.To]++
	}
	prefixSum(degree)
	g := &Graph{
		schema:    s,
		labels:    labels,
		attrs:     attrs,
		numEdges:  len(edges),
		arcStart:  degree,
		arcs:      make([]Arc, numArcs),
		rarcStart: degree,
		rarcs:     make([]Arc, numArcs),
	}
	// The reverse half is scratch until derive fills it. First, every
	// edge's two arcs go to their sources' rows, in edge order.
	cur := make([]int32, n)
	copy(cur, degree)
	for _, e := range edges {
		g.rarcs[cur[e.From]] = Arc{To: e.To, Type: TransferType(e.Type, Forward)}
		cur[e.From]++
		g.rarcs[cur[e.To]] = Arc{To: e.From, Type: TransferType(e.Type, Backward)}
		cur[e.To]++
	}
	// Every arc v->w has a twin w->v of the other direction. Appending
	// the twins of v's arcs for v ascending sorts each row by target.
	copy(cur, degree)
	for v := 0; v < n; v++ {
		for _, a := range g.rarcs[degree[v]:degree[v+1]] {
			g.arcs[cur[a.To]] = Arc{To: NodeID(v), Type: a.Type ^ 1}
			cur[a.To]++
		}
	}
	// A stable counting pass by type in each row makes it (type,
	// target)-sorted.
	count := make([]int32, s.NumTransferTypes()+1)
	for v := 0; v < n; v++ {
		row, tmp := g.arcs[degree[v]:degree[v+1]], g.rarcs[degree[v]:degree[v+1]]
		clear(count)
		for _, a := range row {
			count[a.Type+1]++
		}
		for t := 1; t < len(count); t++ {
			count[t] += count[t-1]
		}
		for _, a := range row {
			tmp[count[a.Type]] = a
			count[a.Type]++
		}
		copy(row, tmp)
	}
	g.derive()
	return g, nil
}

// derive completes g from its forward CSR. Equation 1 fixes each arc's
// InvDeg as 1/OutDeg(u, t): one over the length of its run of type t
// in u's (type, target)-sorted row. The reverse CSR is then one
// counting-sort transposition: sources in ascending order, each row in
// forward order. That leaves every reverse run sorted by (source,
// type), the order in which a source-major scatter sweep deposits
// contributions, which the rank kernel's gather relies on to reproduce
// scatter sums bit for bit.
func (g *Graph) derive() {
	n := len(g.labels)
	for u := 0; u < n; u++ {
		row := g.OutArcs(NodeID(u))
		for i := 0; i < len(row); {
			j := i + 1
			for j < len(row) && row[j].Type == row[i].Type {
				j++
			}
			inv := float32(1) / float32(j-i)
			for k := i; k < j; k++ {
				row[k].InvDeg = inv
			}
			i = j
		}
	}

	inCur := make([]int32, n)
	copy(inCur, g.rarcStart[:n])
	for u := 0; u < n; u++ {
		for _, a := range g.OutArcs(NodeID(u)) {
			g.rarcs[inCur[a.To]] = Arc{To: NodeID(u), Type: a.Type, InvDeg: a.InvDeg}
			inCur[a.To]++
		}
	}
}

// prefixSum converts per-index counts (with one slot of slack at the
// end) into CSR start offsets of length len(counts).
func prefixSum(counts []int32) []int32 {
	var sum int32
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	return counts
}

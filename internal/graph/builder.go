package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates nodes and edges and freezes them into an
// immutable Graph. It validates conformance to the schema graph as
// defined in Section 2 of the paper: every node's label must be a
// schema node and every edge's endpoint types must match its edge
// type's declaration.
type Builder struct {
	schema *Schema
	labels []TypeID
	attrs  [][]Attr
	edges  []Edge
	err    error
}

// NewBuilder returns a Builder for data graphs conforming to s.
func NewBuilder(s *Schema) *Builder {
	return &Builder{schema: s}
}

// AddNode appends a node with the given label and attribute tuple and
// returns its ID. Node IDs are dense and assigned in insertion order.
func (b *Builder) AddNode(label TypeID, attrs ...Attr) NodeID {
	if b.err == nil && (label < 0 || int(label) >= b.schema.NumNodeTypes()) {
		b.err = fmt.Errorf("graph: node %d has unknown label %d", len(b.labels), label)
	}
	b.labels = append(b.labels, label)
	b.attrs = append(b.attrs, attrs)
	return NodeID(len(b.labels) - 1)
}

// AddEdge appends a typed data edge. Endpoint conformance is checked:
// the labels of from and to must equal the edge type's declared source
// and target types. Errors are deferred and reported by Build.
func (b *Builder) AddEdge(from, to NodeID, t EdgeTypeID) {
	if b.err == nil {
		switch {
		case int(from) >= len(b.labels) || from < 0:
			b.err = fmt.Errorf("graph: edge references unknown source node %d", from)
		case int(to) >= len(b.labels) || to < 0:
			b.err = fmt.Errorf("graph: edge references unknown target node %d", to)
		case int(t) >= b.schema.NumEdgeTypes() || t < 0:
			b.err = fmt.Errorf("graph: edge references unknown edge type %d", t)
		default:
			et := b.schema.EdgeTypeInfo(t)
			if b.labels[from] != et.From || b.labels[to] != et.To {
				b.err = fmt.Errorf(
					"graph: edge %d->%d does not conform to type %s-%s->%s (got %s->%s)",
					from, to,
					b.schema.TypeName(et.From), et.Role, b.schema.TypeName(et.To),
					b.schema.TypeName(b.labels[from]), b.schema.TypeName(b.labels[to]))
			}
		}
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Type: t})
}

// Build freezes the accumulated nodes and edges into a Graph, deriving
// the authority transfer data graph: for every data edge u->v of schema
// type e it creates a forward arc u->v of transfer type (e, Forward)
// and a backward arc v->u of type (e, Backward), each carrying the
// inverse per-type out-degree of its source (Equation 1). Build returns
// the first conformance error encountered, if any.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.labels)
	g := &Graph{
		schema:   b.schema,
		labels:   b.labels,
		attrs:    b.attrs,
		numEdges: len(b.edges),
	}

	// Count the transfer arcs leaving each node.
	outCount := make([]int32, n+1)
	for _, e := range b.edges {
		outCount[e.From]++ // forward arc leaves From
		outCount[e.To]++   // backward arc leaves To
	}
	g.arcStart = prefixSum(outCount)
	g.arcs = make([]Arc, 2*len(b.edges))

	// Fill forward arcs; use per-node cursors.
	outCur := make([]int32, n)
	copy(outCur, g.arcStart[:n])
	for _, e := range b.edges {
		g.arcs[outCur[e.From]] = Arc{To: e.To, Type: TransferType(e.Type, Forward)}
		outCur[e.From]++
		g.arcs[outCur[e.To]] = Arc{To: e.From, Type: TransferType(e.Type, Backward)}
		outCur[e.To]++
	}

	// Sort each node's row by (type, target), the order derive reads
	// Equation 1's per-type runs from.
	for v := 0; v < n; v++ {
		run := g.arcs[g.arcStart[v]:g.arcStart[v+1]]
		sort.Slice(run, func(i, j int) bool {
			if run[i].Type != run[j].Type {
				return run[i].Type < run[j].Type
			}
			return run[i].To < run[j].To
		})
	}
	if err := g.derive(true); err != nil {
		return nil, err
	}
	return g, nil
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

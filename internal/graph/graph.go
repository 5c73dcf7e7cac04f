package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
)

// NodeID identifies a node (database object) in a data graph.
type NodeID int32

// Attr is one name/value pair of a node's tuple. The keywords of a node
// are the tokens of its attribute values (Section 2 of the paper).
type Attr struct {
	Name  string
	Value string
}

// Edge is one typed data-graph edge, as supplied to the Builder and
// FromEdges and as enumerated by Graph.Edges.
type Edge struct {
	From NodeID
	To   NodeID
	Type EdgeTypeID
}

// Arc is one edge of the authority transfer data graph D^A: a directed
// typed connection that can carry authority. Every data edge yields two
// arcs, one per direction. InvDeg is 1/OutDeg(from, Type), derived by
// FromEdges, so the authority transfer rate of the arc under a given
// rate vector is Rates.Rate(Type) * InvDeg (Equation 1). The out-degree
// never changes when rates are reformulated, which is why it can be
// frozen while rates stay adjustable.
type Arc struct {
	To     NodeID
	Type   TransferTypeID
	InvDeg float32
}

// Graph is a frozen data graph together with its derived authority
// transfer data graph in CSR (compressed sparse row) form. Build one
// with a Builder or FromEdges. A Graph is immutable and safe for
// concurrent reads.
type Graph struct {
	schema *Schema

	labels []TypeID
	attrs  [][]Attr

	numEdges int

	// Forward CSR over transfer arcs (both directions of every data
	// edge): arcs going OUT of node i are arcs[arcStart[i]:arcStart[i+1]].
	arcStart []int32
	arcs     []Arc

	// Reverse CSR, derived from the forward one: arcs coming INTO node
	// i, stored with To = source node (the node the authority comes
	// FROM) and InvDeg = the source's inverse out-degree for the type.
	// rarcStart and arcStart are one array: a node has as many arcs in
	// as out.
	rarcStart []int32
	rarcs     []Arc

	// fp caches the Fingerprint digest (the graph is immutable, so the
	// digest is computed at most once).
	fpOnce sync.Once
	fp     uint64
}

// Schema returns the schema graph the data graph conforms to.
func (g *Graph) Schema() *Schema { return g.schema }

// NumNodes returns |V_D|.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns |E_D|, the number of data edges (each of which
// yields two transfer arcs).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumArcs returns the number of authority transfer arcs (2 * NumEdges).
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Label returns the node type of v.
func (g *Graph) Label(v NodeID) TypeID { return g.labels[v] }

// LabelName returns the node type name of v.
func (g *Graph) LabelName(v NodeID) string { return g.schema.TypeName(g.labels[v]) }

// Attrs returns the attribute tuple of v. The returned slice must not
// be modified.
func (g *Graph) Attrs(v NodeID) []Attr { return g.attrs[v] }

// Attr returns the value of the named attribute of v, or "" if absent.
func (g *Graph) Attr(v NodeID, name string) string {
	for _, a := range g.attrs[v] {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// Text returns the concatenation of all attribute values of v, the
// node's document text for IR purposes (its keyword set is the token
// set of this text).
func (g *Graph) Text(v NodeID) string {
	as := g.attrs[v]
	switch len(as) {
	case 0:
		return ""
	case 1:
		return as[0].Value
	}
	var b strings.Builder
	for i, a := range as {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Value)
	}
	return b.String()
}

// Display returns a short human-readable rendering of v for result
// lists and explanations: its type name and first attribute value.
func (g *Graph) Display(v NodeID) string {
	label := g.LabelName(v)
	if as := g.attrs[v]; len(as) > 0 {
		return fmt.Sprintf("%s[%d] %s=%q", label, v, as[0].Name, as[0].Value)
	}
	return fmt.Sprintf("%s[%d]", label, v)
}

// OutArcs returns the transfer arcs leaving v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutArcs(v NodeID) []Arc {
	return g.arcs[g.arcStart[v]:g.arcStart[v+1]]
}

// InArcs returns the transfer arcs entering v. Each returned Arc has To
// set to the SOURCE node of the arc and InvDeg set to that source's
// inverse per-type out-degree, so the arc's authority transfer rate is
// still Rates.Rate(Type) * InvDeg. The slice aliases internal storage.
func (g *Graph) InArcs(v NodeID) []Arc {
	return g.rarcs[g.rarcStart[v]:g.rarcStart[v+1]]
}

// ForwardCSR exposes the frozen forward adjacency as flat CSR arrays:
// start offsets (length NumNodes+1) and the packed arc array. Arcs
// leaving node v occupy arcs[start[v]:start[v+1]], sorted by (type,
// target). FromEdges builds it from the data edges, and the reverse
// CSR and every InvDeg are derived from it. Both slices alias internal
// storage and must be treated as read-only; they are safe for
// unsynchronized concurrent reads.
func (g *Graph) ForwardCSR() (start []int32, arcs []Arc) {
	return g.arcStart, g.arcs
}

// ReverseCSR exposes the reverse adjacency, derived from the forward
// one, as flat CSR arrays: start offsets (length NumNodes+1) and the
// packed {source, type, inverse out-degree} arc array. Arcs entering
// node v occupy arcs[start[v]:start[v+1]] with To holding the SOURCE
// node, sorted by (source, type) — the same order in which a
// source-major scatter sweep deposits contributions onto v, which is
// what lets the rank kernel's gather loop reproduce scatter results
// bit-for-bit. Both slices alias internal storage and must be treated
// as read-only; they are safe for unsynchronized concurrent reads. This
// is the hot-loop interface of the power-iteration kernel: index
// arithmetic over contiguous memory, no per-node slice headers.
func (g *Graph) ReverseCSR() (start []int32, arcs []Arc) {
	return g.rarcStart, g.rarcs
}

// Edges returns the data edges, one per forward-direction arc in
// forward CSR order: sources ascending, then edge type, then target.
// FromEdges over the graph's labels, attributes and these edges
// rebuilds the graph.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for u := range g.labels {
		for _, a := range g.OutArcs(NodeID(u)) {
			if a.Type.Dir() == Forward {
				out = append(out, Edge{From: NodeID(u), To: a.To, Type: a.Type.EdgeType()})
			}
		}
	}
	return out
}

// OutDeg returns OutDeg(v, t): the number of transfer arcs of type t
// leaving v (Equation 1's denominator).
func (g *Graph) OutDeg(v NodeID, t TransferTypeID) int {
	n := 0
	for _, a := range g.OutArcs(v) {
		if a.Type == t {
			n++
		}
	}
	return n
}

// NodesOfType returns all nodes with the given label, in ID order.
func (g *Graph) NodesOfType(t TypeID) []NodeID {
	var out []NodeID
	for v, l := range g.labels {
		if l == t {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// SizeBytes estimates the in-memory size of the frozen graph (labels,
// attributes, both CSR halves and the offsets they share), used for the
// Table 1 dataset-size column.
func (g *Graph) SizeBytes() int64 {
	size := int64(len(g.labels)) * 4
	size += int64(len(g.arcStart)) * 4
	size += int64(len(g.arcs)+len(g.rarcs)) * 12
	for _, as := range g.attrs {
		size += 24 // slice header
		for _, a := range as {
			size += int64(len(a.Name) + len(a.Value) + 32)
		}
	}
	return size
}

// Fingerprint returns a 64-bit FNV-1a digest of the frozen graph —
// schema type names, labels, attribute text, and the forward CSR's
// offsets and arcs, from which the reverse CSR is derived —
// computed once and cached. Two graphs with the same fingerprint are,
// for ranking purposes, the same corpus: the snapshot round-trip tests
// compare a reloaded graph to the one written by it.
func (g *Graph) Fingerprint() uint64 {
	g.fpOnce.Do(func() {
		h := fnv.New64a()
		var buf [12]byte
		u32 := func(v uint32) {
			binary.LittleEndian.PutUint32(buf[:4], v)
			h.Write(buf[:4])
		}
		u32(uint32(len(g.labels)))
		u32(uint32(g.numEdges))
		for t := 0; t < g.schema.NumNodeTypes(); t++ {
			h.Write([]byte(g.schema.TypeName(TypeID(t))))
			h.Write([]byte{0})
		}
		for e := 0; e < g.schema.NumEdgeTypes(); e++ {
			et := g.schema.EdgeTypeInfo(EdgeTypeID(e))
			h.Write([]byte(et.Role))
			u32(uint32(et.From))
			u32(uint32(et.To))
		}
		for _, l := range g.labels {
			u32(uint32(l))
		}
		for _, as := range g.attrs {
			for _, a := range as {
				h.Write([]byte(a.Name))
				h.Write([]byte{1})
				h.Write([]byte(a.Value))
				h.Write([]byte{0})
			}
			h.Write([]byte{2})
		}
		for _, s := range g.arcStart {
			u32(uint32(s))
		}
		for _, a := range g.arcs {
			binary.LittleEndian.PutUint32(buf[0:4], uint32(a.To))
			binary.LittleEndian.PutUint32(buf[4:8], uint32(a.Type))
			binary.LittleEndian.PutUint32(buf[8:12], math.Float32bits(a.InvDeg))
			h.Write(buf[:12])
		}
		g.fp = h.Sum64()
	})
	return g.fp
}

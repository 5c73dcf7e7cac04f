package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Frozen is the raw dump of a frozen Graph: its node tables and its
// forward CSR, the only adjacency that is built or stored. Snapshots
// persist this form and reload it verbatim, so a loaded graph cannot
// differ from the built one in arc order — which bit-identical kernel
// results depend on. The slices returned by Graph.Frozen alias the
// graph's internal storage and must be treated as read-only.
type Frozen struct {
	Schema   *Schema
	Labels   []TypeID
	Attrs    [][]Attr
	NumEdges int
	ArcStart []int32
	Arcs     []Arc
}

// Frozen returns the graph's raw frozen parts for serialization.
func (g *Graph) Frozen() Frozen {
	return Frozen{
		Schema:   g.schema,
		Labels:   g.labels,
		Attrs:    g.attrs,
		NumEdges: g.numEdges,
		ArcStart: g.arcStart,
		Arcs:     g.arcs,
	}
}

// FromFrozen reassembles a Graph from raw frozen parts, taking
// ownership of the slices (no copies, and no writes). Every structural
// invariant a Builder-produced graph upholds is re-checked — CSR
// offsets monotonic and in bounds, labels and arcs within range, rows
// sorted, inverse out-degrees the derived ones — so hostile or corrupt
// input yields an error, never a graph that can panic a kernel sweep
// or skew its weights later.
func FromFrozen(f Frozen) (*Graph, error) {
	if f.Schema == nil {
		return nil, fmt.Errorf("graph: frozen parts have no schema")
	}
	n := len(f.Labels)
	if len(f.Attrs) != n {
		return nil, fmt.Errorf("graph: %d labels but %d attribute tuples", n, len(f.Attrs))
	}
	numTypes := TypeID(f.Schema.NumNodeTypes())
	for v, l := range f.Labels {
		if l < 0 || l >= numTypes {
			return nil, fmt.Errorf("graph: node %d has label %d, schema has %d node types", v, l, numTypes)
		}
	}
	if len(f.Arcs) != 2*f.NumEdges {
		return nil, fmt.Errorf("graph: %d arcs for %d edges (want 2 per edge)", len(f.Arcs), f.NumEdges)
	}
	start := f.ArcStart
	if len(start) != n+1 || start[0] != 0 || int(start[n]) != len(f.Arcs) {
		return nil, fmt.Errorf("graph: CSR offsets do not span %d arcs over %d nodes", len(f.Arcs), n)
	}
	for i := 1; i < len(start); i++ {
		if start[i] < start[i-1] {
			return nil, fmt.Errorf("graph: CSR offsets decrease at node %d", i-1)
		}
	}
	g := &Graph{
		schema:   f.Schema,
		labels:   f.Labels,
		attrs:    f.Attrs,
		numEdges: f.NumEdges,
		arcStart: start,
		arcs:     f.Arcs,
	}
	if err := g.derive(false); err != nil {
		return nil, err
	}
	return g, nil
}

// derive completes g from its forward CSR. Equation 1 fixes each arc's
// InvDeg as 1/OutDeg(u, t): one over the length of its run of type t
// in u's row, which must be sorted by (type, target). Build passes
// fill to write those values; FromFrozen checks the stored ones
// instead, and each arc's range, since its arcs may alias a read-only
// buffer. The reverse CSR is then one counting-sort transposition:
// sources in ascending order, each row in forward order. That leaves
// every reverse run sorted by (source, type), the order in which a
// source-major scatter sweep deposits contributions, which the rank
// kernel's gather relies on to reproduce scatter sums bit for bit.
func (g *Graph) derive(fill bool) error {
	n := len(g.labels)
	numTransfer := TransferTypeID(g.schema.NumTransferTypes())
	inCount := make([]int32, n+1)
	for u := 0; u < n; u++ {
		row := g.OutArcs(NodeID(u))
		for i := 0; i < len(row); {
			j := i + 1
			for j < len(row) && row[j].Type == row[i].Type {
				j++
			}
			inv := float32(1) / float32(j-i)
			for k := i; k < j; k++ {
				a := row[k]
				switch {
				case a.To < 0 || int(a.To) >= n || a.Type < 0 || a.Type >= numTransfer:
					return fmt.Errorf("graph: node %d's arc %d (to %d, type %d) is out of range", u, k, a.To, a.Type)
				case k > 0 && (a.Type < row[k-1].Type || a.Type == row[k-1].Type && a.To < row[k-1].To):
					return fmt.Errorf("graph: node %d's arcs %d and %d are out of (type, target) order", u, k-1, k)
				case fill:
					row[k].InvDeg = inv
				case a.InvDeg != inv:
					return fmt.Errorf("graph: node %d's arc %d has inverse out-degree %v, want 1/%d", u, k, a.InvDeg, j-i)
				}
				inCount[a.To]++
			}
			i = j
		}
	}

	g.rarcStart = prefixSum(inCount)
	g.rarcs = make([]Arc, len(g.arcs))
	inCur := make([]int32, n)
	copy(inCur, g.rarcStart[:n])
	for u := 0; u < n; u++ {
		for _, a := range g.OutArcs(NodeID(u)) {
			g.rarcs[inCur[a.To]] = Arc{To: NodeID(u), Type: a.Type, InvDeg: a.InvDeg}
			inCur[a.To]++
		}
	}
	return nil
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

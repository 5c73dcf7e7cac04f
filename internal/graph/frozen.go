package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Frozen is the raw dump of a frozen Graph: every derived array exactly
// as the Builder produced it. Snapshots persist this final CSR form and
// reload it verbatim, so a loaded graph cannot differ from the built
// one in arc order — which bit-identical kernel results depend on. The
// slices returned by Graph.Frozen alias the graph's internal storage
// and must be treated as read-only.
type Frozen struct {
	Schema    *Schema
	Labels    []TypeID
	Attrs     [][]Attr
	NumEdges  int
	ArcStart  []int32
	Arcs      []Arc
	RarcStart []int32
	Rarcs     []Arc
}

// Frozen returns the graph's raw frozen parts for serialization.
func (g *Graph) Frozen() Frozen {
	return Frozen{
		Schema:    g.schema,
		Labels:    g.labels,
		Attrs:     g.attrs,
		NumEdges:  g.numEdges,
		ArcStart:  g.arcStart,
		Arcs:      g.arcs,
		RarcStart: g.rarcStart,
		Rarcs:     g.rarcs,
	}
}

// FromFrozen reassembles a Graph from raw frozen parts, taking
// ownership of the slices (no copies). Every structural invariant a
// Builder-produced graph upholds is re-checked — CSR offsets monotonic
// and in bounds, labels and arc endpoints within range, inverse
// out-degrees in (0, 1] — so hostile or corrupt input yields an error,
// never a graph that can panic a kernel sweep later.
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
	if len(f.Arcs) != len(f.Rarcs) {
		return nil, fmt.Errorf("graph: %d forward arcs but %d reverse arcs", len(f.Arcs), len(f.Rarcs))
	}
	if len(f.Arcs) != 2*f.NumEdges {
		return nil, fmt.Errorf("graph: %d arcs for %d edges (want 2 per edge)", len(f.Arcs), f.NumEdges)
	}
	if err := checkCSR("forward", n, f.ArcStart, f.Arcs, f.Schema); err != nil {
		return nil, err
	}
	if err := checkCSR("reverse", n, f.RarcStart, f.Rarcs, f.Schema); err != nil {
		return nil, err
	}
	return &Graph{
		schema:    f.Schema,
		labels:    f.Labels,
		attrs:     f.Attrs,
		numEdges:  f.NumEdges,
		arcStart:  f.ArcStart,
		arcs:      f.Arcs,
		rarcStart: f.RarcStart,
		rarcs:     f.Rarcs,
	}, nil
}

func checkCSR(side string, n int, start []int32, arcs []Arc, s *Schema) error {
	if len(start) != n+1 {
		return fmt.Errorf("graph: %s CSR has %d offsets for %d nodes (want %d)", side, len(start), n, n+1)
	}
	if start[0] != 0 {
		return fmt.Errorf("graph: %s CSR does not start at 0", side)
	}
	for i := 1; i < len(start); i++ {
		if start[i] < start[i-1] {
			return fmt.Errorf("graph: %s CSR offsets decrease at node %d", side, i-1)
		}
	}
	if int(start[n]) != len(arcs) {
		return fmt.Errorf("graph: %s CSR covers %d arcs, have %d", side, start[n], len(arcs))
	}
	numTransfer := TransferTypeID(s.NumTransferTypes())
	for i, a := range arcs {
		if a.To < 0 || int(a.To) >= n {
			return fmt.Errorf("graph: %s arc %d targets node %d of %d", side, i, a.To, n)
		}
		if a.Type < 0 || a.Type >= numTransfer {
			return fmt.Errorf("graph: %s arc %d has transfer type %d of %d", side, i, a.Type, numTransfer)
		}
		if !(a.InvDeg > 0 && a.InvDeg <= 1) || math.IsNaN(float64(a.InvDeg)) {
			return fmt.Errorf("graph: %s arc %d has inverse out-degree %v outside (0, 1]", side, i, a.InvDeg)
		}
	}
	return nil
}

// Fingerprint returns a 64-bit FNV-1a digest of the frozen graph —
// schema type names, labels, attribute text, and both CSR halves —
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

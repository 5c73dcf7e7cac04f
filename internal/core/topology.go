package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strings"
	"unsafe"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/lru"
)

// topology is the rates-independent half of an explaining subgraph:
// what stage (i) of Figure 8 — the backward and forward searches —
// builds. It depends on the corpus view, the target, the radius, the
// base-set nodes and which transfer types have rate 0, never on the
// non-zero rates, so a generation keeps it and every later explain of
// the same key under any rates runs only stage (ii). A topology is
// immutable once built: every Subgraph explained from its key aliases
// its slices.
type topology struct {
	// Subgraph.Nodes, its distances, rows and Arcs; tgt is the target's
	// position in nodes. nodes, dist and rowStart share one backing
	// array.
	nodes    []graph.NodeID
	dist     []int32
	rowStart []int32
	arcs     []ArcRef
	tgt      int
}

// newTopology allocates a topology of n nodes with room for m arcs:
// nodes, dist and rowStart (its rowStart[0] = 0) in one int32 backing
// and an empty arcs of capacity m.
func newTopology(n, m int) *topology {
	buf := make([]int32, 3*n+1)
	return &topology{
		nodes:    unsafe.Slice((*graph.NodeID)(&buf[0]), n),
		dist:     buf[n : 2*n : 2*n],
		rowStart: buf[2*n:],
		arcs:     make([]ArcRef, 0, m),
	}
}

// newTopologyMemo is one tier of a generation's topology memo. Its
// byte budget is the size of |E| arc references (8·|E|, |E| the
// corpus's arc count; 1 MiB for a corpus smaller than that), and every
// entry is charged its whole footprint, key included, so a tier holds
// at most as much as one view's arc references would. A generation
// has two tiers of that budget: topologies holds decoded topologies,
// which explains alias, and packed their packed encodings
// (packTopology). A corpus swap drops both with their generation.
func newTopologyMemo(c *Corpus) *lru.Sharded {
	return lru.New(max(8*int64(c.g.NumArcs()), 1<<20), 1, nil)
}

// EvictDecodedTopologies empties the decoded tier of the pinned
// generation's topology memo, as memory pressure would, and keeps its
// packed tier: the next explain of a key built before unpacks it. The
// serving path never calls it; tests and benchmarks use it to reach the
// unpack path.
func (p *Pinned) EvictDecodedTopologies() { p.st.gen.topologies.Clear() }

// topologyKey is an explain's memo key: view 0 (the authority corpus)
// or 1 (its hub view), the target, the radius, the rates snapshot's
// zero-rate set and res.Base's nodes in order, in one string the memo's
// map compares whole. Every part but the base set has a fixed width
// within a generation, so two keys share a string only if they are
// equal.
func topologyKey(view int, target graph.NodeID, radius int, zeros []uint64, base []ir.ScoredDoc) string {
	var b strings.Builder
	b.Grow(13 + 8*len(zeros) + 4*len(base))
	var w [8]byte
	b.WriteByte(byte(view))
	b.Write(binary.LittleEndian.AppendUint32(w[:0], uint32(target)))
	b.Write(binary.LittleEndian.AppendUint64(w[:0], uint64(radius)))
	for _, z := range zeros {
		b.Write(binary.LittleEndian.AppendUint64(w[:0], z))
	}
	for _, sd := range base {
		b.Write(binary.LittleEndian.AppendUint32(w[:0], uint32(sd.Doc)))
	}
	return b.String()
}

// size is what a decoded-tier entry of t under key holds, in bytes.
func (t *topology) size(key string) int64 {
	return int64(unsafe.Sizeof(*t)) + int64(len(key)) + 4*int64(3*len(t.nodes)+1) + 8*int64(len(t.arcs))
}

// packedSize is what a packed-tier entry of p under key holds, in
// bytes: the key, the encoding and the slice header boxing it.
func packedSize(key string, p []byte) int64 {
	return int64(len(key)+cap(p)) + int64(unsafe.Sizeof(p))
}

// uvarintLen is the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// packTopology encodes t, built over a view whose forward CSR rows
// start at start, as one byte slice:
//
//	uvarint |Nodes| · uvarint |Arcs| · |Nodes| uvarint gaps between
//	consecutive Nodes (the first from 0) · one byte of D(v) per node ·
//	one bit per forward-CSR arc of each node's row, in little-endian
//	64-bit words
//
// The rows follow Nodes' order back to back, each as long as its node's
// CSR row, so a row's offset comes from the CSR and is not stored; an
// arc's bit is set iff the arc is in the subgraph. The bits record the
// head-in-Nodes tests a decode would otherwise repeat: by Figure 8 a
// subgraph's arcs are exactly the positive-rate arcs its node set
// induces (the conformance table checks it). The encoding has no
// O(|V|) or O(|E|) term. A topology with a distance over 255 — only
// possible at Radius 0 or above 255 — has no packed form: nil.
func packTopology(t *topology, start []int32) []byte {
	n, rowBits := len(t.nodes), 0
	size := uvarintLen(uint64(n)) + uvarintLen(uint64(len(t.arcs))) + n
	prev := graph.NodeID(0)
	for i, v := range t.nodes {
		if t.dist[i] > math.MaxUint8 {
			return nil
		}
		size += uvarintLen(uint64(v - prev))
		rowBits += int(start[v+1] - start[v])
		prev = v
	}
	p := make([]byte, 0, size+(rowBits+63)/64*8)
	p = binary.AppendUvarint(p, uint64(n))
	p = binary.AppendUvarint(p, uint64(len(t.arcs)))
	prev = 0
	for _, v := range t.nodes {
		p = binary.AppendUvarint(p, uint64(v-prev))
		prev = v
	}
	for _, d := range t.dist {
		p = append(p, byte(d))
	}
	// The arcs' bits ascend, so each word is filled in a register and
	// stored once.
	row, off := p[len(p):cap(p)], int32(0)
	var word uint64
	w := int32(0)
	for i, u := range t.nodes {
		base := off - start[u]
		for _, ref := range t.arcs[t.rowStart[i]:t.rowStart[i+1]] {
			b := base + ref.CSR
			if b>>6 != w {
				binary.LittleEndian.PutUint64(row[8*w:], word)
				word, w = 0, b>>6
			}
			word |= 1 << (b & 63)
		}
		off = base + start[u+1]
	}
	if len(row) > 0 {
		binary.LittleEndian.PutUint64(row[8*w:], word)
	}
	return p[:cap(p)]
}

// unpackTopology decodes p, packTopology's encoding of target's
// topology over the view whose forward CSR is (start, out), into the
// topology buildTopology emits for the same key. It marks the nodes in
// sc through keep, so the scratch's local maps each node to its index
// while the arcs' heads are resolved, and putExplainScratch resets it.
func unpackTopology(sc *explainScratch, p []byte, start []int32, out []graph.Arc, target graph.NodeID) *topology {
	n, k := binary.Uvarint(p)
	p = p[k:]
	m, k := binary.Uvarint(p)
	p = p[k:]
	t := newTopology(int(n), int(m))
	v := graph.NodeID(0)
	for i := range t.nodes {
		gap, k := binary.Uvarint(p)
		p = p[k:]
		v += graph.NodeID(gap)
		t.nodes[i] = v
		sc.keep(v)
	}
	for i, d := range p[:n] {
		t.dist[i] = int32(d)
	}
	// Walk the set bits word by word; row i, Nodes[i]'s, holds bits
	// [lo, hi), and a bit b in it is the arc start[u] + b - lo.
	row, local, arcs := p[n:], sc.local, t.arcs
	i, u := 0, t.nodes[0]
	lo, hi := int32(0), start[u+1]-start[u]
	for w := 0; w < len(row); w += 8 {
		for word := binary.LittleEndian.Uint64(row[w:]); word != 0; word &= word - 1 {
			b := int32(w*8 + bits.TrailingZeros64(word))
			for b >= hi {
				t.rowStart[i+1] = int32(len(arcs))
				i++
				u = t.nodes[i]
				lo, hi = hi, hi+start[u+1]-start[u]
			}
			c := start[u] + b - lo
			arcs = append(arcs, ArcRef{CSR: c, Head: local[out[c].To]})
		}
	}
	for ; i < len(t.nodes); i++ {
		t.rowStart[i+1] = int32(len(arcs))
	}
	t.arcs, t.tgt = arcs, int(local[target])
	return t
}

package core

import (
	"encoding/binary"
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
	// position in nodes.
	nodes    []graph.NodeID
	dist     []int32
	rowStart []int32
	arcs     []ArcRef
	tgt      int
}

// newTopologyMemo is a generation's LRU of built topologies. Its byte
// budget is the size of |E| arc references (8·|E|, |E| the corpus's
// arc count; 1 MiB for a corpus smaller than that), and every entry is
// charged its whole footprint — key, nodes, rows and arcs — so the memo
// holds at most as much as one view's arc references would. A corpus
// swap drops it with its generation.
func newTopologyMemo(c *Corpus) *lru.Sharded {
	return lru.New(max(8*int64(c.g.NumArcs()), 1<<20), 1, nil)
}

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

// size is what a memo entry of t under key holds, in bytes.
func (t *topology) size(key string) int64 {
	return int64(unsafe.Sizeof(*t)) + int64(len(key)) + 4*int64(3*len(t.nodes)+1) + 8*int64(len(t.arcs))
}

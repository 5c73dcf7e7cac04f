package core

import (
	"context"
	"encoding/binary"
	"math/bits"
	"slices"
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
// the same key under any rates runs only stage (ii). A target's ball
// (buildBall) is a topology too, one with no base set. A topology is
// immutable once built: every Subgraph explained from its key aliases
// its slices.
type topology struct {
	// Subgraph.Nodes, its distances, rows and Arcs; tgt is the target's
	// position in nodes. All four share one backing array.
	nodes    []graph.NodeID
	dist     []int32
	rowStart []int32
	arcs     []ArcRef
	tgt      int
}

// newTopology allocates a topology of n nodes with room for m arcs in
// one int32 backing: nodes, dist, rowStart (its rowStart[0] = 0) and an
// empty arcs of capacity m.
func newTopology(n, m int) *topology {
	buf := make([]int32, 3*n+1+2*m)
	t := &topology{
		nodes:    unsafe.Slice((*graph.NodeID)(&buf[0]), n),
		dist:     buf[n : 2*n : 2*n],
		rowStart: buf[2*n : 3*n+1 : 3*n+1],
		arcs:     []ArcRef{},
	}
	if m > 0 {
		t.arcs = unsafe.Slice((*ArcRef)(unsafe.Pointer(&buf[3*n+1])), m)[:0]
	}
	return t
}

// newTopologyMemo is one tier of a generation's topology memo. Its
// byte budget is the size of |E| arc references (8·|E|, |E| the
// corpus's arc count; 1 MiB for a corpus smaller than that), and every
// entry is charged its whole footprint, key included, so a tier holds
// at most as much as one view's arc references would. A generation
// has two tiers of that budget: topologies holds the topologies
// explains alias, and balls the targets' balls they are derived from
// (restrict). A corpus swap drops both with their generation.
func newTopologyMemo(c *Corpus) *lru.Sharded {
	return lru.New(max(8*int64(c.g.NumArcs()), 1<<20), 1, nil)
}

// EvictDecodedTopologies empties the decoded tier of the pinned
// generation's topology memo, as memory pressure would, and keeps its
// ball tier: the next explain of a key built before derives it from its
// target's ball. The serving path never calls it; tests and benchmarks
// use it to reach the derive path.
func (p *Pinned) EvictDecodedTopologies() { p.st.gen.topologies.Clear() }

// topologyKey is an explain's memo key: view 0 (the authority corpus)
// or 1 (its hub view), the target, the radius, the rates snapshot's
// zero-rate set and res.Base's nodes in order, in one string the memo's
// map compares whole. Its first ballKeyLen(zeros) bytes, everything but
// the base set, are the key of the target's ball. Every part but the
// base set has a fixed width within a generation, so two keys share a
// string only if they are equal.
func topologyKey(view int, target graph.NodeID, radius int, zeros []uint64, base []ir.ScoredDoc) string {
	var b strings.Builder
	b.Grow(ballKeyLen(zeros) + 4*len(base))
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

// ballKeyLen is the length of a ball's key: a topologyKey's view,
// target, radius and zero-rate set.
func ballKeyLen(zeros []uint64) int { return 13 + 8*len(zeros) }

// size is what a tier's entry of t under key holds, in bytes.
func (t *topology) size(key string) int64 {
	return int64(unsafe.Sizeof(*t)) + int64(len(key)) + 4*int64(3*len(t.nodes)+1) + 8*int64(cap(t.arcs))
}

// buildBall is stage (i)a of Figure 8, the half that does not read the
// query: the target's ball, every node within radius arcs of positive
// rate of the target (all of them at radius 0), ascending, with its
// distance D(v) to the target and, in rows over ball-local indices, the
// positive-rate arcs the ball induces. Every ball node reaches the
// target over those arcs.
func buildBall(ctx context.Context, sc *explainScratch, g *graph.Graph, alpha []float64, target graph.NodeID, radius int) (*topology, error) {
	dist := sc.dist

	// The backward breadth-first search from the target over arcs with
	// non-zero transfer rates, bounded by the radius. dist holds each
	// reached node's arc distance to the target.
	dist[target] = 0
	sc.back = append(sc.back, target)
	for head := 0; head < len(sc.back); head++ {
		v := sc.back[head]
		dv := dist[v]
		if radius > 0 && int(dv) >= radius {
			continue
		}
		for _, a := range g.InArcs(v) {
			if alpha[a.Type] != 0 && dist[a.To] < 0 {
				dist[a.To] = dv + 1
				sc.back = append(sc.back, a.To)
			}
		}
	}

	// Phase boundary: the search can touch a Radius-bounded neighborhood
	// of the whole graph; bail before emitting the ball if the request
	// died meanwhile.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The ball in ascending ID order is the set mark bits, enumerated
	// word by word into order; each node's row of positive-rate arcs
	// into the ball is staged in sel as forward-CSR indices.
	start, out := g.ForwardCSR()
	for _, v := range sc.back {
		sc.mark[v>>6] |= 1 << (v & 63)
	}
	sc.rows = append(sc.rows, 0)
	for w, word := range sc.mark {
		for ; word != 0; word &= word - 1 {
			v := int32(w<<6 | bits.TrailingZeros64(word))
			sc.order = append(sc.order, v)
			for k := start[v]; k < start[v+1]; k++ {
				if a := &out[k]; alpha[a.Type] != 0 && dist[a.To] >= 0 {
					sc.sel = append(sc.sel, k)
				}
			}
			sc.rows = append(sc.rows, int32(len(sc.sel)))
		}
	}
	for _, v := range sc.back {
		sc.mark[v>>6] = 0
	}

	// dist[v] turns from v's distance into its index in the ball, so it
	// stays >= 0 exactly on the ball and resolves each arc's head.
	t := newTopology(len(sc.order), len(sc.sel))
	for i, v := range sc.order {
		t.nodes[i], t.dist[i] = graph.NodeID(v), dist[v]
		dist[v] = int32(i)
	}
	copy(t.rowStart, sc.rows)
	for _, k := range sc.sel {
		t.arcs = append(t.arcs, ArcRef{CSR: k, Head: dist[out[k].To]})
	}
	t.tgt = int(dist[target])
	sc.order = sc.order[:0]
	return t, nil
}

// restrict is stage (i)b of Figure 8 over a target's ball: the topology
// of base set base is the forward closure of base ∩ ball over the
// ball's arcs — a node is kept iff it lies on a path from S(Q) to the
// target — with the kept rows compacted. By Figure 8 a subgraph's arcs
// are exactly the positive-rate arcs its nodes induce, and a kept node's
// whole ball row is such. When every ball node is kept the topology is
// the ball itself, aliased. When no base node is in the ball the target
// is kept alone, so an explanation exists even though no authority
// reaches it, with its self-loops as its arcs. The closure runs over
// ball-local indices in sc's local, mark and kept.
func restrict(sc *explainScratch, ball *topology, base []ir.ScoredDoc) *topology {
	for _, sd := range base {
		if i, ok := slices.BinarySearch(ball.nodes, graph.NodeID(sd.Doc)); ok && sc.local[i] < 0 {
			sc.keep(graph.NodeID(i))
		}
	}
	m := 0
	for head := 0; head < len(sc.kept); head++ {
		i := sc.kept[head]
		row := ball.arcs[ball.rowStart[i]:ball.rowStart[i+1]]
		m += len(row)
		for _, ref := range row {
			if sc.local[ref.Head] < 0 {
				sc.keep(graph.NodeID(ref.Head))
			}
		}
	}
	if len(sc.kept) == 0 {
		sc.keep(graph.NodeID(ball.tgt))
		m = int(ball.rowStart[ball.tgt+1] - ball.rowStart[ball.tgt])
	}
	if len(sc.kept) == len(ball.nodes) {
		return ball
	}

	// Nodes in ascending ID order are the set mark bits; local[i] turns
	// from i's closure position into its index in Nodes, and order maps
	// it back. A head outside the kept set is only the lone target's.
	t := newTopology(len(sc.kept), m)
	for w, word := range sc.mark[:(len(ball.nodes)+63)/64] {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			t.nodes[len(sc.order)], t.dist[len(sc.order)] = ball.nodes[i], ball.dist[i]
			sc.local[i] = int32(len(sc.order))
			sc.order = append(sc.order, int32(i))
		}
	}
	for j, i := range sc.order {
		for _, ref := range ball.arcs[ball.rowStart[i]:ball.rowStart[i+1]] {
			if h := sc.local[ref.Head]; h >= 0 {
				t.arcs = append(t.arcs, ArcRef{CSR: ref.CSR, Head: h})
			}
		}
		t.rowStart[j+1] = int32(len(t.arcs))
	}
	t.tgt = int(sc.local[ball.tgt])
	return t
}

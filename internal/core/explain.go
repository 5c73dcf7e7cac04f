package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// ExplainOptions control explaining-subgraph construction (Section 4).
type ExplainOptions struct {
	// Radius bounds the length of explained paths: only nodes within
	// Radius transfer arcs of the target enter the subgraph. The paper
	// uses L = 3, observing that longer paths are unintuitive and carry
	// little authority. Zero means unlimited.
	Radius int
	// Threshold is the convergence threshold of the flow-adjustment
	// fixpoint (Equation 10). Zero means the paper's 0.002.
	Threshold float64
	// MaxIters bounds the flow-adjustment iterations (default 200).
	MaxIters int
}

func (o ExplainOptions) withDefaults() ExplainOptions {
	if o.Threshold == 0 {
		o.Threshold = 0.002
	}
	if o.MaxIters == 0 {
		o.MaxIters = 200
	}
	return o
}

// DefaultExplain returns the paper's setting: radius 3, threshold 0.002.
func DefaultExplain() ExplainOptions { return ExplainOptions{Radius: 3} }

// FlowArc is one edge of an explaining subgraph, annotated with the
// authority it carries. A Subgraph stores its arcs as ArcRefs and
// derives FlowArcs on read (FlowArcs, TopArcs, TopPaths).
type FlowArc struct {
	From graph.NodeID
	To   graph.NodeID
	Type graph.TransferTypeID
	// Rate is the arc's authority transfer rate under the engine's
	// rates at explain time: alpha(Type)/OutDeg(From, Type)
	// (Equation 1).
	Rate float64
	// Flow0 is the "original" authority flow at the converged
	// ObjectRank2 state: d · Rate · r^Q(From) (Equation 5).
	Flow0 float64
	// Flow is the explaining authority flow after adjustment: the part
	// of Flow0 that eventually reaches the target inside the subgraph
	// (Equation 7: Flow = h(To) · Flow0).
	Flow float64
}

// ArcRef is how a Subgraph stores one of its arcs: a reference into the
// forward CSR of the corpus view the subgraph was built on (the reversed
// view for a hub-mode explain) plus the local index of the arc's head.
// The arc's endpoints, type, rate and flows are derived from it on read
// (FlowArcs), so an arc costs 8 bytes instead of a 40-byte FlowArc.
type ArcRef struct {
	// CSR is the arc's index in the view's forward CSR.
	CSR int32
	// Head is the position of the arc's head in Subgraph.Nodes.
	Head int32
}

// Subgraph is the explaining subgraph G^Q_v of a target object v: every
// path along which authority travels from the base set S(Q) to v, with
// each arc annotated by the amount of authority that flows over it and
// eventually reaches v.
type Subgraph struct {
	// Target is the explained object v.
	Target graph.NodeID
	// Query is the query whose ranking is being explained.
	Query *ir.Query
	// Nodes lists the subgraph's nodes in ascending ID order; the
	// target is always present. A node's position in Nodes is its local
	// index: the per-node quantities are dense slices parallel to Nodes,
	// read by ID through H/Dist/InFlow/OutFlow (a binary search) or by
	// position through At. Nodes is shared with every subgraph explained
	// from the same topology (TopologyReused) and is read-only.
	Nodes []graph.NodeID
	// Arcs lists the subgraph's arcs in ascending-source order (each
	// source's arcs in CSR order), as CSR references; FlowArcs derives
	// them with their rates and original and adjusted flows. Like Nodes,
	// Arcs is shared and read-only.
	Arcs []ArcRef
	// Iterations and Converged report the Equation 10 fixpoint run;
	// Table 3 of the paper tracks these counts.
	Iterations int
	Converged  bool
	// TopologyReused reports that the construction stage was skipped:
	// Nodes, Arcs and the distances are those of an earlier explain of
	// the same corpus view, target, radius, base set and zero-rate
	// transfer types, under the same corpus generation.
	TopologyReused bool
	// BuildDuration is the wall time of the construction stage and
	// AdjustDuration of the flow-adjustment stage — the "Explaining
	// Subgraph Creation" and "Explaining ObjectRank2 Execution" bars of
	// Figures 14–17. BuildDuration ends once each arc's rate under the
	// explain's rates is filled in; on a reuse it times only the topology
	// lookup and the per-explain setup: the per-node arrays, the copy of
	// r(u) and that fill.
	BuildDuration  time.Duration
	AdjustDuration time.Duration

	// What the arcs are derived from: the damping factor and rate vector
	// the explain ran under, the view's forward-CSR arcs, the row of
	// each node in Arcs (Nodes[i]'s out-arcs are
	// Arcs[rowStart[i]:rowStart[i+1]]) and each node's score r(u),
	// copied out of the ranking so the subgraph outlives its buffer.
	damping  float64
	alpha    []float64
	csr      []graph.Arc
	rowStart []int32
	score    []float64

	h       []float64
	dist    []int32
	inFlow  []float64
	outFlow []float64
	// sens is each node's audit sensitivity (AuditNode.Sensitivity):
	// the sum of Flow/Rate over its out-arcs, in arc order.
	sens []float64
}

// transferRate is the Equation 1 transfer rate of CSR arc a under the
// rate vector alpha: alpha(Type)/OutDeg(From, Type).
func transferRate(alpha []float64, a *graph.Arc) float64 { return alpha[a.Type] * float64(a.InvDeg) }

// arcFlows derives the flows of an arc of rate rate under damping d from
// a node of score r to a node of reduction factor h: the original flow
// d·Rate·r(From) of Equation 5 and the adjusted flow h(To)·Flow0 of
// Equation 7. The explain's Equation 6 sums and every reader of a
// subgraph go through it, so a flow is the same float64 wherever it is
// read; the conversion keeps a caller's sum from fusing with the
// product.
func arcFlows(d, rate, r, h float64) (flow0, flow float64) {
	flow0 = d * rate * r
	return flow0, float64(h * flow0)
}

// arc derives Arcs[k], an out-arc of Nodes[i].
func (sg *Subgraph) arc(i int, k int32) FlowArc {
	ref := sg.Arcs[k]
	a := &sg.csr[ref.CSR]
	rate := transferRate(sg.alpha, a)
	flow0, flow := arcFlows(sg.damping, rate, sg.score[i], sg.h[ref.Head])
	return FlowArc{From: sg.Nodes[i], To: a.To, Type: a.Type, Rate: rate, Flow0: flow0, Flow: flow}
}

// FlowArcs derives every arc of the subgraph with its rate and flows,
// in Arcs order: the materialized form for exports and tests.
func (sg *Subgraph) FlowArcs() []FlowArc {
	out := make([]FlowArc, 0, len(sg.Arcs))
	for i := range sg.Nodes {
		for k := sg.rowStart[i]; k < sg.rowStart[i+1]; k++ {
			out = append(out, sg.arc(i, k))
		}
	}
	return out
}

// NodeFlow is the per-node state of an explaining subgraph: the
// converged flow-reduction factor h (Equation 10; h(Target) = 1 by
// construction), the distance in arcs from the target (the D(v_k) of
// Equation 11), and the summed adjusted flows entering and leaving the
// node inside the subgraph (Equation 6).
type NodeFlow struct {
	Node    graph.NodeID
	H       float64
	Dist    int
	InFlow  float64
	OutFlow float64
}

// Index returns v's position in Nodes and whether v is part of the
// subgraph.
func (sg *Subgraph) Index(v graph.NodeID) (int, bool) {
	return slices.BinarySearch(sg.Nodes, v)
}

// At returns the per-node state of Nodes[i] — the positional accessor
// for loops over the whole subgraph.
func (sg *Subgraph) At(i int) NodeFlow {
	return NodeFlow{Node: sg.Nodes[i], H: sg.h[i], Dist: int(sg.dist[i]), InFlow: sg.inFlow[i], OutFlow: sg.outFlow[i]}
}

// node returns v's per-node state, or the zero NodeFlow when v is not
// part of the subgraph.
func (sg *Subgraph) node(v graph.NodeID) NodeFlow {
	if i, ok := sg.Index(v); ok {
		return sg.At(i)
	}
	return NodeFlow{}
}

// Has reports whether v is part of the subgraph.
func (sg *Subgraph) Has(v graph.NodeID) bool {
	_, ok := sg.Index(v)
	return ok
}

// H returns v's converged flow-reduction factor h (Equation 10);
// h(Target) = 1 by construction, and 0 for a node outside the subgraph.
func (sg *Subgraph) H(v graph.NodeID) float64 { return sg.node(v).H }

// Dist returns v's distance (in arcs) from the target, the D(v_k) of
// the content-based reformulation decay (Equation 11).
func (sg *Subgraph) Dist(v graph.NodeID) int { return sg.node(v).Dist }

// InFlow returns I(v): the summed adjusted flow entering v inside the
// subgraph (Equation 6a).
func (sg *Subgraph) InFlow(v graph.NodeID) float64 { return sg.node(v).InFlow }

// OutFlow returns O(v): the summed adjusted flow leaving v inside the
// subgraph (Equation 6b).
func (sg *Subgraph) OutFlow(v graph.NodeID) float64 { return sg.node(v).OutFlow }

// ExplainedScore returns the total adjusted authority arriving at the
// target — what the subgraph shows the user as "why this object is
// ranked where it is".
func (sg *Subgraph) ExplainedScore() float64 { return sg.InFlow(sg.Target) }

// NodeAuthority returns the authority a node transfers toward the
// target, the per-node factor of the content-based reformulation
// weight (Equation 11): the node's adjusted out-flow, except for the
// target itself which uses d times its in-flow because the target's
// out-flow is not part of the subgraph.
func (sg *Subgraph) NodeAuthority(v graph.NodeID) float64 {
	n := sg.node(v)
	if v == sg.Target {
		return sg.damping * n.InFlow
	}
	return n.OutFlow
}

// ExplainCtx builds the explaining subgraph for target under the
// converged authority-mode ObjectRank2 result res, following the
// two-stage algorithm of Figure 8: (i) construction — a backward
// traversal from the target intersected with a forward traversal from
// the base set keeps exactly the arcs that can carry authority to the
// target; (ii) flow adjustment — the Equation 10 fixpoint computes, per
// node, the reduction factor h by which its incoming flows are scaled
// to discount authority that leaks out of the subgraph.
//
// It runs against the pinned state, so it cannot observe rates
// published — or a corpus swapped in — after the view was taken. Stage
// (i) does not read the non-zero rates, so the generation keeps its
// result and a later explain of the same key, under any rates with the
// same zero-rate types, runs stage (ii) alone (TopologyReused). ctx is
// checked at entry, after each BFS of a build and once per Equation 10
// iteration, so a cancelled or expired request abandons the explain
// within one phase/iteration and returns ctx.Err() instead of a
// subgraph; a build abandoned at any poll keeps nothing.
func (p *Pinned) ExplainCtx(ctx context.Context, res *RankResult, target graph.NodeID, opts ExplainOptions) (*Subgraph, error) {
	return explainOn(ctx, p.st, 0, p.st.gen.corpus, res, target, opts)
}

// explainScratch is the pooled part of an explain. dist and local are
// |V|-sized: per graph node, its backward-BFS distance to the target and
// its position (in the forward BFS queue, then in Nodes), -1 where
// unset; mark holds one bit per node, set for the kept ones. back and
// kept are the two BFS queues, which double as the visited lists the
// reset walks. sel holds the forward-CSR indices of the subgraph's arcs,
// grouped in rows by source in BFS order: row p, kept[p]'s arcs, is
// sel[rows[p]:rows[p+1]]. order maps a position in Nodes back to its BFS
// row. rates and toLocal hold each subgraph arc's Rate and head's local
// index, dense and in Arcs order, for the Equation 10 loop to stream.
// The scratch is pooled per corpus generation (both directions share
// |V|) and handed back with every touched dist and local entry reset to
// -1, every mark word to 0 and every list empty, so one explain
// allocates O(|subgraph|), not O(|V|).
type explainScratch struct {
	dist, local      []int32
	mark             []uint64
	back, kept       []graph.NodeID
	sel, rows, order []int32
	rates            []float64
	toLocal          []int32
}

func (gn *generation) getExplainScratch(n int) *explainScratch {
	if sc, _ := gn.explainScratch.Get().(*explainScratch); sc != nil {
		return sc
	}
	sc := &explainScratch{dist: make([]int32, n), local: make([]int32, n), mark: make([]uint64, (n+63)/64)}
	for i := range sc.dist {
		sc.dist[i], sc.local[i] = -1, -1
	}
	return sc
}

func (gn *generation) putExplainScratch(sc *explainScratch) {
	for _, v := range sc.back {
		sc.dist[v] = -1
	}
	for _, v := range sc.kept {
		sc.local[v] = -1
		sc.mark[v>>6] = 0
	}
	sc.back, sc.kept = sc.back[:0], sc.kept[:0]
	sc.sel, sc.rows, sc.order = sc.sel[:0], sc.rows[:0], sc.order[:0]
	sc.rates, sc.toLocal = sc.rates[:0], sc.toLocal[:0]
	gn.explainScratch.Put(sc)
}

// keep adds v to the forward BFS queue: local[v] becomes its queue
// position and its mark bit is set.
func (sc *explainScratch) keep(v graph.NodeID) {
	sc.local[v] = int32(len(sc.kept))
	sc.mark[v>>6] |= 1 << (v & 63)
	sc.kept = append(sc.kept, v)
}

// explainOn explains against an explicit corpus view of the pinned
// state: view 0, the generation's authority corpus, on the standard
// path, view 1, its direction-reversed hub view, when explaining a
// hub-mode ranking (mode.go). res must have been solved on the SAME view
// — the flows of Equation 5 read res.Scores through this corpus's arcs.
// The topology of stage (i) comes from the generation's memo when an
// explain of the same key completed before; stage (ii) always runs.
func explainOn(ctx context.Context, st *engineState, view int, c *Corpus, res *RankResult, target graph.NodeID, opts ExplainOptions) (*Subgraph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := c.g
	if int(target) < 0 || int(target) >= g.NumNodes() {
		return nil, fmt.Errorf("core: explain target %d out of range", target)
	}
	opts = opts.withDefaults()
	buildStart := time.Now()
	sc := st.gen.getExplainScratch(g.NumNodes())
	defer st.gen.putExplainScratch(sc)
	key := topologyKey(view, target, opts.Radius, st.snap.zeros, res.Base)
	v, reused := st.gen.topologies.Get(key)
	topo, _ := v.(*topology)
	if !reused {
		var err error
		if topo, err = buildTopology(ctx, sc, g, st.snap.alpha, res, target, opts.Radius); err != nil {
			return nil, err
		}
	}
	sg, err := adjust(ctx, sc, c, st.snap.alpha, topo, res, opts, buildStart)
	if err != nil {
		return nil, err
	}
	sg.TopologyReused = reused
	if !reused {
		st.gen.topologyBuilds.Add(1)
		st.gen.topologies.Put(key, topo, topo.size(key))
	}
	return sg, nil
}

// buildTopology is stage (i) of Figure 8: the subgraph's nodes, their
// distances to the target and its arcs, as rows of CSR references over
// local indices. It reads the rates only through which of them are 0.
func buildTopology(ctx context.Context, sc *explainScratch, g *graph.Graph, alpha []float64, res *RankResult, target graph.NodeID, radius int) (*topology, error) {
	dist, local := sc.dist, sc.local

	// Stage (i)a: backward breadth-first search from the target over
	// arcs with non-zero transfer rates, bounded by the radius. dist
	// holds each reached node's arc distance to the target (D(v_k)).
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

	// Phase boundary: the backward BFS can touch a Radius-bounded
	// neighborhood of the whole graph; bail before starting the forward
	// pass if the request died meanwhile.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage (i)b: forward breadth-first search from the base-set nodes
	// that survived the backward stage, restricted to backward-reached
	// nodes. A node is kept iff it lies on a directed path from S(Q) to
	// the target (within the radius). Every arc the search follows —
	// positive rate, backward-reached head — is an arc of the subgraph,
	// and together they are all of them, so the search records each one's
	// forward-CSR index in its source's row of sel: the only walk over
	// the kept nodes' out-arcs.
	start, out := g.ForwardCSR()
	for _, sd := range res.Base {
		if v := graph.NodeID(sd.Doc); dist[v] >= 0 && local[v] < 0 {
			sc.keep(v)
		}
	}
	sc.rows = append(sc.rows, 0)
	for head := 0; head < len(sc.kept); head++ {
		u := sc.kept[head]
		for k := start[u]; k < start[u+1]; k++ {
			a := &out[k]
			if alpha[a.Type] == 0 || dist[a.To] < 0 {
				continue
			}
			sc.sel = append(sc.sel, k)
			if local[a.To] < 0 {
				sc.keep(a.To)
			}
		}
		sc.rows = append(sc.rows, int32(len(sc.sel)))
	}
	// The target is always kept so an explanation exists even when no
	// authority reaches it. Then it is kept alone, and its subgraph arcs
	// are its self-loops: the arcs the search never followed.
	if local[target] < 0 {
		sc.keep(target)
		for k := start[target]; k < start[target+1]; k++ {
			if a := &out[k]; a.To == target && alpha[a.Type] != 0 {
				sc.sel = append(sc.sel, k)
			}
		}
		sc.rows = append(sc.rows, int32(len(sc.sel)))
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Nodes in ascending ID order are the set mark bits, enumerated word
	// by word; local[v] turns from v's BFS row into its index in Nodes.
	n := len(sc.kept)
	t := &topology{
		nodes:    make([]graph.NodeID, 0, n),
		dist:     make([]int32, n),
		rowStart: make([]int32, n+1),
	}
	for w, word := range sc.mark {
		for ; word != 0; word &= word - 1 {
			v := graph.NodeID(w<<6 | bits.TrailingZeros64(word))
			t.dist[len(t.nodes)] = dist[v]
			sc.order = append(sc.order, local[v])
			local[v] = int32(len(t.nodes))
			t.nodes = append(t.nodes, v)
		}
	}
	t.tgt = int(local[target])

	// Emit the subgraph arcs as CSR references in rows over local
	// indices: row i is Nodes[i]'s BFS row of sel. sel holds exactly the
	// arcs, so Arcs never regrows.
	arcs := make([]ArcRef, 0, len(sc.sel))
	for i := range t.nodes {
		p := sc.order[i]
		for _, k := range sc.sel[sc.rows[p]:sc.rows[p+1]] {
			arcs = append(arcs, ArcRef{CSR: k, Head: local[out[k].To]})
		}
		t.rowStart[i+1] = int32(len(arcs))
	}
	t.arcs = arcs
	return t, nil
}

// adjust is stage (ii) of Figure 8 over a built or reused topology, the
// one flow-adjustment path: it fills the scratch's rates and toLocal
// with each arc's Rate under alpha and its head, copies r(u) per node,
// runs the Equation 10 fixpoint and sums the Equation 6 flows. The
// subgraph's per-node float arrays are its only allocation besides the
// Subgraph itself.
func adjust(ctx context.Context, sc *explainScratch, c *Corpus, alpha []float64, topo *topology, res *RankResult, opts ExplainOptions, buildStart time.Time) (*Subgraph, error) {
	_, out := c.g.ForwardCSR()
	n := len(topo.nodes)
	f := make([]float64, 5*n)
	sg := &Subgraph{
		Target:   topo.nodes[topo.tgt],
		Query:    res.Query,
		Nodes:    topo.nodes,
		Arcs:     topo.arcs,
		damping:  c.nopts.Damping,
		alpha:    alpha,
		csr:      out,
		rowStart: topo.rowStart,
		dist:     topo.dist,
		score:    f[0*n : 1*n : 1*n],
		h:        f[1*n : 2*n : 2*n],
		inFlow:   f[2*n : 3*n : 3*n],
		outFlow:  f[3*n : 4*n : 4*n],
		sens:     f[4*n : 5*n : 5*n],
	}
	for i, v := range topo.nodes {
		sg.score[i] = res.Scores[v]
	}
	// The Equation 10 loop streams each arc's head and Rate, dense and in
	// Arcs order.
	toLocal, rates := sc.toLocal, sc.rates
	for _, ref := range topo.arcs {
		toLocal = append(toLocal, ref.Head)
		rates = append(rates, transferRate(alpha, &out[ref.CSR]))
	}
	sc.toLocal, sc.rates = toLocal, rates
	rowStart := topo.rowStart
	sg.BuildDuration = time.Since(buildStart)

	// Stage (ii): the Equation 10 fixpoint
	//
	//	h(v_k) = sum over (v_k -> v_j) in G of h(v_j) · a(v_k -> v_j)
	//
	// with h(target) = 1 fixed; every other node's factor is the
	// rate-weighted sum of its successors' factors inside the subgraph,
	// discounting authority that leaks outside. Per Observation 2 only
	// arc rates are needed, not the original ObjectRank2 scores. The
	// iteration converges by Theorem 1 (it mirrors PageRank with in/out
	// edges swapped and no damping factor, on a graph where every node
	// reaches the target). Like the ranking kernel, it polls ctx once
	// per iteration, so a dead request abandons the adjustment within
	// one sweep.
	adjustStart := time.Now()
	h := sg.h
	for i := range h {
		h[i] = 1
	}
	tgt := topo.tgt
	for it := 0; it < opts.MaxIters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sg.Iterations = it + 1
		maxDiff := 0.0
		for i := range h {
			if i == tgt {
				continue
			}
			sum := 0.0
			row := rates[rowStart[i]:rowStart[i+1]]
			for k, t := range toLocal[rowStart[i]:rowStart[i+1]] {
				sum += h[t] * row[k]
			}
			if diff := math.Abs(sum - h[i]); diff > maxDiff {
				maxDiff = diff
			}
			h[i] = sum
		}
		if maxDiff < opts.Threshold {
			sg.Converged = true
			break
		}
	}

	// Per-node sums (Equation 6) of the final flows (Equation 7), in arc
	// order, and each source's audit sensitivity. Rate > 0 by
	// construction (zero-rate arcs never enter the subgraph), so the
	// derivative Flow/Rate is always defined.
	d, inFlow := sg.damping, sg.inFlow
	for i, r := range sg.score {
		sum, sens := 0.0, 0.0
		for k := rowStart[i]; k < rowStart[i+1]; k++ {
			t := toLocal[k]
			_, flow := arcFlows(d, rates[k], r, h[t])
			sum += flow
			sens += flow / rates[k]
			inFlow[t] += flow
		}
		sg.outFlow[i], sg.sens[i] = sum, sens
	}
	sg.AdjustDuration = time.Since(adjustStart)
	return sg, nil
}

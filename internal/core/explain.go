package core

import (
	"context"
	"fmt"
	"math"
	"sort"
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
// authority it carries.
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
	// target is always present.
	Nodes []graph.NodeID
	// Arcs lists the subgraph's arcs with original and adjusted flows.
	Arcs []FlowArc
	// H maps each node to its converged flow-reduction factor h
	// (Equation 10); h(Target) = 1 by construction.
	H map[graph.NodeID]float64
	// Dist maps each node to its distance (in arcs) from the target,
	// the D(v_k) of the content-based reformulation decay (Equation 11).
	Dist map[graph.NodeID]int
	// Iterations and Converged report the Equation 10 fixpoint run;
	// Table 3 of the paper tracks these counts.
	Iterations int
	Converged  bool
	// BuildDuration is the wall time of the construction stage and
	// AdjustDuration of the flow-adjustment stage — the "Explaining
	// Subgraph Creation" and "Explaining ObjectRank2 Execution" bars of
	// Figures 14–17.
	BuildDuration  time.Duration
	AdjustDuration time.Duration

	damping float64
	inFlow  map[graph.NodeID]float64
	outFlow map[graph.NodeID]float64
}

// Has reports whether v is part of the subgraph.
func (sg *Subgraph) Has(v graph.NodeID) bool {
	_, ok := sg.H[v]
	return ok
}

// InFlow returns I(v): the summed adjusted flow entering v inside the
// subgraph (Equation 6a).
func (sg *Subgraph) InFlow(v graph.NodeID) float64 { return sg.inFlow[v] }

// OutFlow returns O(v): the summed adjusted flow leaving v inside the
// subgraph (Equation 6b).
func (sg *Subgraph) OutFlow(v graph.NodeID) float64 { return sg.outFlow[v] }

// ExplainedScore returns the total adjusted authority arriving at the
// target — what the subgraph shows the user as "why this object is
// ranked where it is".
func (sg *Subgraph) ExplainedScore() float64 { return sg.inFlow[sg.Target] }

// NodeAuthority returns the authority a node transfers toward the
// target, the per-node factor of the content-based reformulation
// weight (Equation 11): the node's adjusted out-flow, except for the
// target itself which uses d times its in-flow because the target's
// out-flow is not part of the subgraph.
func (sg *Subgraph) NodeAuthority(v graph.NodeID) float64 {
	if v == sg.Target {
		return sg.damping * sg.inFlow[v]
	}
	return sg.outFlow[v]
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
// published — or a corpus swapped in — after the view was taken. The
// construction stage checks ctx at its phase boundaries (after each BFS
// and after arc collection) and the Equation 10 fixpoint polls once per
// iteration, so a cancelled or expired request abandons the build
// within one phase/iteration and returns ctx.Err() instead of a
// subgraph.
func (p *Pinned) ExplainCtx(ctx context.Context, res *RankResult, target graph.NodeID, opts ExplainOptions) (*Subgraph, error) {
	return explainOn(ctx, p.st, p.st.gen.corpus, res, target, opts)
}

// explainOn explains against an explicit corpus view of the pinned
// state: the generation's authority corpus on the standard path, its
// direction-reversed hub view when explaining a hub-mode ranking
// (mode.go). res must have been solved on the SAME view — the flows of
// Equation 5 read res.Scores through this corpus's arcs.
func explainOn(ctx context.Context, st *engineState, c *Corpus, res *RankResult, target graph.NodeID, opts ExplainOptions) (*Subgraph, error) {
	snap := st.snap
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := c.g
	if int(target) < 0 || int(target) >= g.NumNodes() {
		return nil, fmt.Errorf("core: explain target %d out of range", target)
	}
	opts = opts.withDefaults()
	alpha := snap.alpha
	buildStart := time.Now()

	// Stage (i)a: backward breadth-first search from the target over
	// arcs with non-zero transfer rates, bounded by the radius. dist
	// holds each node's arc distance to the target (D(v_k)).
	dist := map[graph.NodeID]int{target: 0}
	queue := []graph.NodeID{target}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		if opts.Radius > 0 && dv >= opts.Radius {
			continue
		}
		for _, a := range g.InArcs(v) {
			if alpha[a.Type] == 0 {
				continue
			}
			if _, seen := dist[a.To]; !seen {
				dist[a.To] = dv + 1
				queue = append(queue, a.To)
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
	// the target (within the radius). The target itself is always kept
	// so an explanation exists even when no authority reaches it.
	inG := make(map[graph.NodeID]bool, len(dist))
	var frontier []graph.NodeID
	for _, sd := range res.Base {
		v := graph.NodeID(sd.Doc)
		if _, ok := dist[v]; ok && !inG[v] {
			inG[v] = true
			frontier = append(frontier, v)
		}
	}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		for _, a := range g.OutArcs(v) {
			if alpha[a.Type] == 0 {
				continue
			}
			if _, back := dist[a.To]; !back {
				continue
			}
			if !inG[a.To] {
				inG[a.To] = true
				frontier = append(frontier, a.To)
			}
		}
	}
	inG[target] = true

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sg := &Subgraph{
		Target:  target,
		Query:   res.Query,
		H:       make(map[graph.NodeID]float64, len(inG)),
		Dist:    make(map[graph.NodeID]int, len(inG)),
		damping: c.nopts.Damping,
		inFlow:  make(map[graph.NodeID]float64, len(inG)),
		outFlow: make(map[graph.NodeID]float64, len(inG)),
	}
	for v := range inG {
		sg.Nodes = append(sg.Nodes, v)
		sg.Dist[v] = dist[v]
	}
	sort.Slice(sg.Nodes, func(i, j int) bool { return sg.Nodes[i] < sg.Nodes[j] })

	// Collect subgraph arcs with their original flows (Equation 5).
	d := sg.damping
	for _, u := range sg.Nodes {
		for _, a := range g.OutArcs(u) {
			w := alpha[a.Type]
			if w == 0 || !inG[a.To] {
				continue
			}
			rate := w * float64(a.InvDeg)
			sg.Arcs = append(sg.Arcs, FlowArc{
				From:  u,
				To:    a.To,
				Type:  a.Type,
				Rate:  rate,
				Flow0: d * rate * res.Scores[u],
			})
		}
	}

	sg.BuildDuration = time.Since(buildStart)

	// Stage (ii): the Equation 10 fixpoint. h(target) is pinned to 1;
	// every other node's factor is the rate-weighted sum of its
	// successors' factors inside the subgraph, discounting authority
	// that leaks outside. Like the ranking kernel, the fixpoint polls
	// ctx once per iteration, so a dead request abandons the adjustment
	// within one sweep.
	adjustStart := time.Now()
	if err := sg.runAdjustment(ctx, opts); err != nil {
		return nil, err
	}

	// Final flows (Equation 7) and per-node flow sums (Equation 6).
	for i := range sg.Arcs {
		a := &sg.Arcs[i]
		a.Flow = sg.H[a.To] * a.Flow0
		sg.outFlow[a.From] += a.Flow
		sg.inFlow[a.To] += a.Flow
	}
	sg.AdjustDuration = time.Since(adjustStart)
	sg.inFlow[target] += 0 // ensure the target has an entry even with no arcs
	return sg, nil
}

// runAdjustment iterates Equation 10 to convergence:
//
//	h(v_k) = sum over (v_k -> v_j) in G of h(v_j) · a(v_k -> v_j)
//
// with h(target) = 1 fixed. Per Observation 2 the original ObjectRank2
// scores are not needed. The iteration converges by Theorem 1 (the
// computation mirrors PageRank with in/out edges swapped and no damping
// factor, on a graph where every node reaches the target). ctx is
// polled once per iteration, mirroring the ranking kernel's per-sweep
// cancellation contract; on cancellation the context error is returned
// and the subgraph must be discarded.
func (sg *Subgraph) runAdjustment(ctx context.Context, opts ExplainOptions) error {
	// Group arcs by source for the per-node sums. Only arc rates are
	// needed — per Observation 2, the original ObjectRank2 scores play
	// no role in the reduction factors.
	type succ struct {
		to   graph.NodeID
		rate float64
	}
	succs := make(map[graph.NodeID][]succ, len(sg.Nodes))
	for _, a := range sg.Arcs {
		succs[a.From] = append(succs[a.From], succ{to: a.To, rate: a.Rate})
	}

	h := sg.H
	for _, v := range sg.Nodes {
		h[v] = 1
	}
	for it := 0; it < opts.MaxIters; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sg.Iterations = it + 1
		maxDiff := 0.0
		for _, v := range sg.Nodes {
			if v == sg.Target {
				continue
			}
			sum := 0.0
			for _, s := range succs[v] {
				sum += h[s.to] * s.rate
			}
			if diff := math.Abs(sum - h[v]); diff > maxDiff {
				maxDiff = diff
			}
			h[v] = sum
		}
		if maxDiff < opts.Threshold {
			sg.Converged = true
			break
		}
	}
	return nil
}

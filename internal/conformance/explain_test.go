package conformance

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
)

// This file is the explain pipeline's part of the table: the dense
// CSR-local Eq. 5–10 kernel and the bounded top-budget selection
// against the map-based construction and the full sort they replaced,
// kept here verbatim as the test-only reference.

// refSubgraph is the reference explaining subgraph: every per-node
// quantity in a map keyed by node.
type refSubgraph struct {
	target          graph.NodeID
	nodes           []graph.NodeID
	arcs            []core.FlowArc
	h               map[graph.NodeID]float64
	dist            map[graph.NodeID]int
	inFlow, outFlow map[graph.NodeID]float64
	iterations      int
	converged       bool
}

// refExplain is the Figure 8 algorithm as the repository ran it before
// the dense kernel: map-based BFS passes, arcs appended in
// ascending-source CSR order, the Eq. 10 Gauss–Seidel sweep over
// per-source successor lists, Eq. 7 flows and Eq. 6 sums in arc order.
func refExplain(g *graph.Graph, alpha []float64, d float64, res *core.RankResult, target graph.NodeID, opts core.ExplainOptions) *refSubgraph {
	if opts.Threshold == 0 {
		opts.Threshold = 0.002
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 200
	}
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

	sg := &refSubgraph{
		target:  target,
		h:       make(map[graph.NodeID]float64, len(inG)),
		dist:    make(map[graph.NodeID]int, len(inG)),
		inFlow:  make(map[graph.NodeID]float64, len(inG)),
		outFlow: make(map[graph.NodeID]float64, len(inG)),
	}
	for v := range inG {
		sg.nodes = append(sg.nodes, v)
		sg.dist[v] = dist[v]
	}
	sort.Slice(sg.nodes, func(i, j int) bool { return sg.nodes[i] < sg.nodes[j] })
	for _, u := range sg.nodes {
		for _, a := range g.OutArcs(u) {
			w := alpha[a.Type]
			if w == 0 || !inG[a.To] {
				continue
			}
			rate := w * float64(a.InvDeg)
			sg.arcs = append(sg.arcs, core.FlowArc{From: u, To: a.To, Type: a.Type, Rate: rate, Flow0: d * rate * res.Scores[u]})
		}
	}

	type succ struct {
		to   graph.NodeID
		rate float64
	}
	succs := make(map[graph.NodeID][]succ, len(sg.nodes))
	for _, a := range sg.arcs {
		succs[a.From] = append(succs[a.From], succ{to: a.To, rate: a.Rate})
	}
	h := sg.h
	for _, v := range sg.nodes {
		h[v] = 1
	}
	for it := 0; it < opts.MaxIters; it++ {
		sg.iterations = it + 1
		maxDiff := 0.0
		for _, v := range sg.nodes {
			if v == target {
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
			sg.converged = true
			break
		}
	}
	for i := range sg.arcs {
		a := &sg.arcs[i]
		a.Flow = h[a.To] * a.Flow0
		sg.outFlow[a.From] += a.Flow
		sg.inFlow[a.To] += a.Flow
	}
	return sg
}

// refAudit is the reference sensitivity ranking: every arc
// materialized, per-source sums behind a map of pointers, both lists
// fully sorted and then cut to the budget.
func refAudit(sg *refSubgraph, budget int) (arcs []core.AuditArc, nodes []core.AuditNode, totalNodes int) {
	arcs = make([]core.AuditArc, len(sg.arcs))
	perNode := make(map[graph.NodeID]*core.AuditNode, len(sg.nodes))
	for i, fa := range sg.arcs {
		arcs[i] = core.AuditArc{From: fa.From, To: fa.To, Type: fa.Type, Rate: fa.Rate, Flow: fa.Flow, Sensitivity: fa.Flow / fa.Rate}
		n := perNode[fa.From]
		if n == nil {
			n = &core.AuditNode{Node: fa.From}
			perNode[fa.From] = n
		}
		n.Sensitivity += arcs[i].Sensitivity
		n.Flow += fa.Flow
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].Sensitivity != arcs[j].Sensitivity {
			return arcs[i].Sensitivity > arcs[j].Sensitivity
		}
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		if arcs[i].To != arcs[j].To {
			return arcs[i].To < arcs[j].To
		}
		return arcs[i].Type < arcs[j].Type
	})
	if len(arcs) > budget {
		arcs = arcs[:budget]
	}
	for _, v := range sg.nodes {
		if n := perNode[v]; n != nil {
			nodes = append(nodes, *n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Sensitivity != nodes[j].Sensitivity {
			return nodes[i].Sensitivity > nodes[j].Sensitivity
		}
		return nodes[i].Node < nodes[j].Node
	})
	if len(nodes) > budget {
		nodes = nodes[:budget]
	}
	return arcs, nodes, len(perNode)
}

// refTopArcs is the reference flow ranking: every arc fully sorted by
// flow descending, then (From, To, Type), and cut to the budget.
func refTopArcs(sg *refSubgraph, budget int) []core.FlowArc {
	arcs := slices.Clone(sg.arcs)
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].Flow != arcs[j].Flow {
			return arcs[i].Flow > arcs[j].Flow
		}
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		if arcs[i].To != arcs[j].To {
			return arcs[i].To < arcs[j].To
		}
		return arcs[i].Type < arcs[j].Type
	})
	return arcs[:min(budget, len(arcs))]
}

func flattenArcs(arcs []core.FlowArc) []float64 {
	out := make([]float64, 0, 6*len(arcs))
	for _, a := range arcs {
		out = append(out, float64(a.From), float64(a.To), float64(a.Type), a.Rate, a.Flow0, a.Flow)
	}
	return out
}

func boolBit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// flattenSubgraph renders everything the dense kernel owes the
// reference as vectors the table can compare: Nodes, the FlowArc
// fields, then H, Dist, InFlow and OutFlow per node, then Iterations
// and Converged.
func flattenSubgraph(sg *core.Subgraph) [][]float64 {
	nodes := make([]float64, 0, 5*len(sg.Nodes))
	for i, v := range sg.Nodes {
		// Both accessors: by position and by the binary search on Nodes.
		n := sg.At(i)
		j, _ := sg.Index(v)
		nodes = append(nodes, float64(v), n.H, float64(n.Dist), n.InFlow, n.OutFlow,
			sg.H(v), float64(sg.At(j).Dist), sg.InFlow(v), sg.OutFlow(v))
	}
	return [][]float64{nodes, flattenArcs(sg.FlowArcs()), {float64(sg.Iterations), boolBit(sg.Converged)}}
}

func flattenRef(sg *refSubgraph) [][]float64 {
	nodes := make([]float64, 0, 5*len(sg.nodes))
	for _, v := range sg.nodes {
		nodes = append(nodes, float64(v), sg.h[v], float64(sg.dist[v]), sg.inFlow[v], sg.outFlow[v],
			sg.h[v], float64(sg.dist[v]), sg.inFlow[v], sg.outFlow[v])
	}
	return [][]float64{nodes, flattenArcs(sg.arcs), {float64(sg.iterations), boolBit(sg.converged)}}
}

func flattenAudit(arcs []core.AuditArc, nodes []core.AuditNode, totalArcs, totalNodes int) [][]float64 {
	var fa, fn []float64
	for _, a := range arcs {
		fa = append(fa, float64(a.From), float64(a.To), float64(a.Type), a.Rate, a.Flow, a.Sensitivity)
	}
	for _, n := range nodes {
		fn = append(fn, float64(n.Node), n.Sensitivity, n.Flow)
	}
	return [][]float64{fa, fn, {float64(totalArcs), float64(totalNodes)}}
}

// explainCase is one (ranking, target, options) explain of a world.
type explainCase struct {
	res    *core.RankResult
	target graph.NodeID
	opts   core.ExplainOptions
}

// explainCases explains, for the first queries with a base set, the
// best-ranked node, a mid-ranked one and a node the query may not reach
// at all, at the paper's setting and at a tight unbounded one. Then,
// for the query that matches nothing, up to two targets with a
// positive-rate self-loop: nothing reaches them, so each is kept alone
// and its self-loops, the arcs the forward search never follows, are
// its whole subgraph.
func explainCases(t *testing.T, w *world, m core.Mode) []explainCase {
	var out []explainCase
	for _, q := range w.queries[:4] {
		res := rankOne(t, w.pin, m, q)
		if len(res.Base) == 0 {
			continue
		}
		top := res.TopK(topK)
		for _, target := range []graph.NodeID{top[0].Node, top[len(top)-1].Node, graph.NodeID(w.g.NumNodes() - 1)} {
			out = append(out,
				explainCase{res, target, core.DefaultExplain()},
				explainCase{res, target, core.ExplainOptions{Threshold: 1e-12, MaxIters: 1000}})
		}
	}
	absent := rankOne(t, w.pin, m, w.queries[len(w.queries)-1])
	if len(absent.Base) != 0 {
		t.Fatalf("%v matches %d nodes, want none", absent.Query, len(absent.Base))
	}
	looped := w.selfLooped(m)
	for _, target := range looped[:min(2, len(looped))] {
		out = append(out, explainCase{absent, target, core.DefaultExplain()})
	}
	return out
}

// graphOf is the graph direction m explains over.
func (w *world) graphOf(m core.Mode) *graph.Graph {
	if m == core.ModeHub {
		return w.g.Reversed()
	}
	return w.g
}

// selfLooped lists the nodes with a positive-rate self-loop in direction
// m, ascending.
func (w *world) selfLooped(m core.Mode) []graph.NodeID {
	g, alpha := w.graphOf(m), w.rates.Vector()
	var out []graph.NodeID
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if slices.ContainsFunc(g.OutArcs(u), func(a graph.Arc) bool { return a.To == u && alpha[a.Type] != 0 }) {
			out = append(out, u)
		}
	}
	return out
}

// reference runs a case through refExplain on the direction's graph.
func (w *world) reference(m core.Mode, c explainCase) *refSubgraph {
	return refExplain(w.graphOf(m), w.rates.Vector(), tight.Damping, c.res, c.target, c.opts)
}

// countdown is a context that reports cancellation from its n-th Err
// poll on, which lands a cancellation on an exact phase boundary of the
// explain (entry, after each BFS of a build, once per Eq. 10
// iteration).
type countdown struct {
	context.Context
	left int
}

func (c *countdown) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func explainRows(w *world) []path {
	var rows []path
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		references := func(t *testing.T) [][]float64 {
			var out [][]float64
			for _, c := range explainCases(t, w, m) {
				out = append(out, flattenRef(w.reference(m, c))...)
			}
			return out
		}
		rows = append(rows,
			path{fmt.Sprintf("%s dense explain ≡ reference", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						out = append(out, flattenSubgraph(explainOne(t, context.Background(), w.pin, m, c))...)
					}
					return out
				}, references},
			// The guard on the pooled scratch and on the topology memo: an
			// explain abandoned at any poll hands back scratch the next
			// explain can trust, and a build abandoned at any poll keeps no
			// topology, so the next explain builds again. A build polls
			// 3 + iterations times (entry, after each BFS, each Eq. 10
			// iteration), each on an engine of its own; a reuse of the
			// topology one engine built polls 1 + iterations times (entry,
			// each iteration).
			path{fmt.Sprintf("%s explain after a cancellation at each phase boundary ≡ reference", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					cancelAt := func(pin *core.Pinned, c explainCase, n int, reused bool) {
						ctx := &countdown{Context: context.Background(), left: n}
						if sg, err := pin.ExplainModeCtx(ctx, m, c.res, c.target, c.opts); err != context.Canceled || sg != nil {
							t.Fatalf("reused=%v: cancelled at poll %d: (%v, %v), want (nil, context.Canceled)", reused, n, sg, err)
						}
						sg := explainOne(t, context.Background(), pin, m, c)
						if sg.TopologyReused != reused {
							t.Fatalf("after a cancellation at poll %d: TopologyReused = %v, want %v", n, sg.TopologyReused, reused)
						}
						out = append(out, flattenSubgraph(sg)...)
					}
					for _, c := range explainCases(t, w, m)[:2] {
						iters := w.reference(m, c).iterations
						for n := 0; n < 3+iters; n++ {
							cancelAt(w.fresh(t, w.rates).Pin(), c, n, false)
						}
						pin := w.fresh(t, w.rates).Pin()
						explainOne(t, context.Background(), pin, m, c)
						for n := 0; n < 1+iters; n++ {
							cancelAt(pin, c, n, true)
						}
					}
					return out
				},
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m)[:2] {
						ref := w.reference(m, c)
						for n := 0; n < (3+ref.iterations)+(1+ref.iterations); n++ {
							out = append(out, flattenRef(ref)...)
						}
					}
					return out
				}},
			// Paper invariants as properties (ROADMAP 6b): Equation 7, and
			// the explained score as the sum of the target's in-flows.
			path{fmt.Sprintf("%s Eq. 7 Flow = h(To)·Flow0 and Σ in-flow(target) = ExplainedScore", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						sg := explainOne(t, context.Background(), w.pin, m, c)
						flows := []float64{sg.ExplainedScore()}
						for _, a := range sg.FlowArcs() {
							flows = append(flows, a.Flow)
						}
						out = append(out, flows)
					}
					return out
				},
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						sg := explainOne(t, context.Background(), w.pin, m, c)
						flows := []float64{0}
						for _, a := range sg.FlowArcs() {
							flows = append(flows, sg.H(a.To)*a.Flow0)
							if a.To == sg.Target {
								flows[0] += a.Flow
							}
						}
						out = append(out, flows)
					}
					return out
				}},
		)
		for _, budget := range []int{1, 16, 1000} {
			budget := budget
			rows = append(rows, path{fmt.Sprintf("%s TopArcs top-%d ≡ prefix of the full sort", m, budget), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						out = append(out, flattenArcs(explainOne(t, context.Background(), w.pin, m, c).TopArcs(budget)))
					}
					return out
				},
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						out = append(out, flattenArcs(refTopArcs(w.reference(m, c), budget)))
					}
					return out
				}})
			rows = append(rows, path{fmt.Sprintf("%s audit top-%d ≡ prefix of the full sort", m, budget), bitIdentical,
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						a := core.AuditOf(explainOne(t, context.Background(), w.pin, m, c), budget)
						out = append(out, flattenAudit(a.Arcs, a.Nodes, a.TotalArcs, a.TotalNodes)...)
					}
					return out
				},
				func(t *testing.T) [][]float64 {
					var out [][]float64
					for _, c := range explainCases(t, w, m) {
						ref := w.reference(m, c)
						arcs, nodes, totalNodes := refAudit(ref, budget)
						out = append(out, flattenAudit(arcs, nodes, len(ref.arcs), totalNodes)...)
					}
					return out
				}})
		}
	}
	// Both directions draw their scratch from one per-generation pool;
	// explains racing on it still owe the reference every bit.
	const racers = 6
	modes := []core.Mode{core.ModeAuthority, core.ModeHub}
	rows = append(rows, path{"authority and hub explains from six goroutines at once ≡ reference", bitIdentical,
		func(t *testing.T) [][]float64 {
			cases := [][]explainCase{explainCases(t, w, modes[0]), explainCases(t, w, modes[1])}
			outs := make([][][]float64, racers)
			var wg sync.WaitGroup
			for r := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, m := range modes {
						for _, c := range cases[i] {
							sg, err := w.pin.ExplainModeCtx(context.Background(), m, c.res, c.target, c.opts)
							if err != nil {
								t.Error(err)
								return
							}
							outs[r] = append(outs[r], flattenSubgraph(sg)...)
						}
					}
				}()
			}
			wg.Wait()
			return slices.Concat(outs...)
		},
		func(t *testing.T) [][]float64 {
			var once [][]float64
			for _, m := range modes {
				for _, c := range explainCases(t, w, m) {
					once = append(once, flattenRef(w.reference(m, c))...)
				}
			}
			var out [][]float64
			for r := 0; r < racers; r++ {
				out = append(out, once...)
			}
			return out
		}})
	return rows
}

// TestExplainCasesHaveSelfLoops: the worlds TestConformance runs (seeds
// 1–5) give explainCases positive-rate self-loop targets in both
// directions, so the explain rows cover the arcs the forward search
// never follows.
func TestExplainCasesHaveSelfLoops(t *testing.T) {
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		n := 0
		for seed := int64(1); seed <= 5; seed++ {
			n += len(newWorld(t, seed).selfLooped(m))
		}
		if n == 0 {
			t.Errorf("%s: no world has a self-looped target", m)
		}
	}
}

package experiments

import (
	"math"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// HITSResult holds the converged hub and authority scores of
// Kleinberg's HITS algorithm [Kle99], which the paper's related-work
// section positions against authority-flow ranking: HITS computes two
// mutually dependent values per node instead of one flow fixpoint, and
// ignores edge types and transfer rates.
type HITSResult struct {
	Hubs        []float64
	Authorities []float64
	Iterations  int
	Converged   bool
}

// HITS runs hubs-and-authorities over the data edges (forward arcs
// only, matching HITS's original directed-link semantics) restricted to
// the given node subset (nil = whole graph). Scores are L2-normalized
// each iteration; convergence is the L1 change of the authority vector
// falling below threshold.
//
// HITS is the query-dependent baseline of the related work: callers
// typically pass the base set expanded by a hop or two (the "focused
// subgraph" of [Kle99]) and rank by authority score.
func HITS(g *graph.Graph, subset []graph.NodeID, threshold float64, maxIters int) HITSResult {
	if threshold <= 0 {
		threshold = 1e-6
	}
	if maxIters <= 0 {
		maxIters = 100
	}
	n := g.NumNodes()
	in := make([]bool, n)
	if subset == nil {
		for i := range in {
			in[i] = true
		}
	} else {
		for _, v := range subset {
			if v >= 0 && int(v) < n {
				in[v] = true
			}
		}
	}

	hubs := make([]float64, n)
	auth := make([]float64, n)
	for i := range hubs {
		if in[i] {
			hubs[i] = 1
			auth[i] = 1
		}
	}
	res := HITSResult{}
	prevAuth := make([]float64, n)
	for it := 0; it < maxIters; it++ {
		copy(prevAuth, auth)
		// Authority update: sum of hub scores over incoming data edges.
		for v := 0; v < n; v++ {
			if !in[v] {
				continue
			}
			sum := 0.0
			for _, a := range g.InArcs(graph.NodeID(v)) {
				if a.Type.Dir() == graph.Forward && in[a.To] {
					sum += hubs[a.To]
				}
			}
			auth[v] = sum
		}
		normalizeL2(auth)
		// Hub update: sum of authority scores over outgoing data edges.
		for v := 0; v < n; v++ {
			if !in[v] {
				continue
			}
			sum := 0.0
			for _, a := range g.OutArcs(graph.NodeID(v)) {
				if a.Type.Dir() == graph.Forward && in[a.To] {
					sum += auth[a.To]
				}
			}
			hubs[v] = sum
		}
		normalizeL2(hubs)

		res.Iterations = it + 1
		diff := 0.0
		for v := range auth {
			diff += math.Abs(auth[v] - prevAuth[v])
		}
		if diff < threshold {
			res.Converged = true
			break
		}
	}
	res.Hubs = hubs
	res.Authorities = auth
	return res
}

func normalizeL2(v []float64) {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	if sum == 0 {
		return
	}
	norm := math.Sqrt(sum)
	for i := range v {
		v[i] /= norm
	}
}

// FocusedSubgraph returns the [Kle99]-style focused node set for a base
// set: the base nodes plus every node within radius data-edge hops
// (either direction).
func FocusedSubgraph(g *graph.Graph, base []graph.NodeID, radius int) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(base))
	var out, frontier []graph.NodeID
	for _, v := range base {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
			frontier = append(frontier, v)
		}
	}
	for hop := 0; hop < radius; hop++ {
		var next []graph.NodeID
		for _, v := range frontier {
			for _, a := range g.OutArcs(v) {
				if !seen[a.To] {
					seen[a.To] = true
					out = append(out, a.To)
					next = append(next, a.To)
				}
			}
		}
		frontier = next
	}
	return out
}

// HITSBaseline ranks by Kleinberg's hubs-and-authorities over the
// [Kle99]-style focused subgraph of the query's base set under pin
// (base nodes plus radius hops), the second related-work baseline next
// to the original ObjectRank. Scores are HITS authority values; nodes
// outside the focused subgraph score zero. Iterations reports the HITS
// iteration count.
func HITSBaseline(pin *core.Pinned, q *ir.Query, radius int) *core.RankResult {
	g := pin.Corpus().Graph()
	base := pin.BaseSet(q)
	res := &core.RankResult{Query: q, Base: base, Converged: true, RatesVersion: pin.Version(), Generation: pin.Generation()}
	if len(base) == 0 {
		// An empty base set focuses on nothing; HITS's nil-subset
		// convention (whole graph) must not kick in.
		res.Scores = make([]float64, g.NumNodes())
		return res
	}
	opts := pin.Corpus().Options()
	h := HITS(g, FocusedSubgraph(g, nodesOf(base), radius), opts.Threshold, opts.MaxIters)
	res.Scores, res.Iterations, res.Converged = h.Authorities, h.Iterations, h.Converged
	return res
}

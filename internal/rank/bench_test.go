package rank

import (
	"math/rand"
	"testing"

	"authorityflow/internal/graph"
)

// benchGraph builds a random citation graph for iteration benches and
// the randomized kernel-equivalence tests.
func benchGraph(b testing.TB, n, m int) (*graph.Graph, *graph.Rates) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	gb := graph.NewBuilder(s)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = gb.AddNode(paper)
	}
	for i := 0; i < m; i++ {
		gb.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)], cites)
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, 0.6)
	r.Set(cites, graph.Backward, 0.2)
	return g, r
}

// BenchmarkPowerIteration measures the core fixpoint loop with the
// design choice shipped in this library: per-arc weights computed on
// the fly as rate[type] * invdeg, so structure-based reformulation can
// swap rate vectors without touching the graph.
func BenchmarkPowerIteration(b *testing.B) {
	g, r := benchGraph(b, 20000, 160000)
	base := make([]float64, g.NumNodes())
	for i := range base {
		base[i] = 1
	}
	NormalizeDist(base)
	opts := Options{Threshold: 1e-6, MaxIters: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(g, r, base, opts)
	}
}

// BenchmarkAblationMaterializedWeights is the ablation: per-arc weights
// precomputed into a flat array before iterating. It buys a little
// speed per run but must be rebuilt on EVERY rate reformulation, which
// the shipped design avoids; the bench quantifies the trade.
func BenchmarkAblationMaterializedWeights(b *testing.B) {
	g, r := benchGraph(b, 20000, 160000)
	base := make([]float64, g.NumNodes())
	for i := range base {
		base[i] = 1
	}
	NormalizeDist(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMaterialized(g, r, base, 0.85, 1e-6, 100)
	}
}

// runMaterialized mirrors Run but flattens arcs and weights first —
// including the rebuild cost a reformulating system would pay.
func runMaterialized(g *graph.Graph, rates *graph.Rates, base []float64, d, threshold float64, maxIters int) []float64 {
	n := g.NumNodes()
	alpha := rates.Vector()
	starts := make([]int32, n+1)
	var total int
	for u := 0; u < n; u++ {
		starts[u] = int32(total)
		total += len(g.OutArcs(graph.NodeID(u)))
	}
	starts[n] = int32(total)
	tos := make([]int32, total)
	ws := make([]float64, total)
	pos := 0
	for u := 0; u < n; u++ {
		for _, a := range g.OutArcs(graph.NodeID(u)) {
			tos[pos] = int32(a.To)
			ws[pos] = d * alpha[a.Type] * float64(a.InvDeg)
			pos++
		}
	}
	cur := append([]float64(nil), base...)
	next := make([]float64, n)
	for it := 0; it < maxIters; it++ {
		for v := range next {
			next[v] = (1 - d) * base[v]
		}
		for u := 0; u < n; u++ {
			ru := cur[u]
			if ru == 0 {
				continue
			}
			for i := starts[u]; i < starts[u+1]; i++ {
				next[tos[i]] += ws[i] * ru
			}
		}
		diff := 0.0
		for v := range next {
			delta := next[v] - cur[v]
			if delta < 0 {
				delta = -delta
			}
			diff += delta
		}
		cur, next = next, cur
		if diff < threshold {
			break
		}
	}
	return cur
}

// BenchmarkWarmVsColdIterations reports how many iterations the warm
// start saves (the Figures 14b–17b effect) as custom metrics.
func BenchmarkWarmVsColdIterations(b *testing.B) {
	g, r := benchGraph(b, 20000, 160000)
	rng := rand.New(rand.NewSource(3))
	base := make([]float64, g.NumNodes())
	for i := 0; i < 50; i++ {
		base[rng.Intn(len(base))] = 1
	}
	NormalizeDist(base)
	opts := Options{Threshold: 1e-6, MaxIters: 500}
	cold := run(g, r, base, opts)

	base2 := append([]float64(nil), base...)
	base2[rng.Intn(len(base2))] += 0.1
	NormalizeDist(base2)

	var warmIters, coldIters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := opts
		w.Init = cold.Scores
		warmIters = run(g, r, base2, w).Iterations
		coldIters = run(g, r, base2, opts).Iterations
	}
	b.ReportMetric(float64(warmIters), "warm-iters")
	b.ReportMetric(float64(coldIters), "cold-iters")
}

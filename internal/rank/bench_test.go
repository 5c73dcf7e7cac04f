package rank

import (
	"math/rand"
	"testing"

	"authorityflow/internal/graph"
)

// benchGraph builds a random citation graph for the iteration benches.
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

// BenchmarkPowerIteration measures the core fixpoint loop of a single
// column: per-arc weights computed on the fly as rate[type] * invdeg.
// (Multi-column solves sweep a coefficient plan instead; the root
// package's BenchmarkSolveColumns measures both.)
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

package rank

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"authorityflow/internal/graph"
)

func randomWorld(t testing.TB, seed int64, n, m int) (*graph.Graph, *graph.Rates, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	g, r := paperGraph(t, n, edges, 0.6, 0.2)
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64()
	}
	NormalizeDist(base)
	return g, r, base
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		g, r, base := randomWorld(t, int64(workers), 500, 3000)
		opts := Options{Threshold: 1e-10, MaxIters: 1000}
		serial := run(g, r, base, opts)
		parallel := runWorkers(g, r, base, opts, workers)
		if !parallel.Converged || !serial.Converged {
			t.Fatalf("workers=%d: convergence serial=%v parallel=%v", workers, serial.Converged, parallel.Converged)
		}
		for i := range serial.Scores {
			if math.Abs(serial.Scores[i]-parallel.Scores[i]) > 1e-9 {
				t.Fatalf("workers=%d: node %d: serial %v vs parallel %v",
					workers, i, serial.Scores[i], parallel.Scores[i])
			}
		}
	}
}

func TestParallelDegenerateWorkerCounts(t *testing.T) {
	g, r, base := randomWorld(t, 5, 100, 500)
	opts := Options{Threshold: 1e-10, MaxIters: 1000}
	serial := run(g, r, base, opts)
	for _, workers := range []int{0, 1, 100, 1000} {
		got := runWorkers(g, r, base, opts, workers)
		for i := range serial.Scores {
			if math.Abs(serial.Scores[i]-got.Scores[i]) > 1e-9 {
				t.Fatalf("workers=%d diverges at node %d", workers, i)
			}
		}
	}
}

func TestParallelEmptyGraph(t *testing.T) {
	g, r := paperGraph(t, 1, nil, 0.5, 0)
	res := runWorkers(g, r, []float64{1}, Options{Threshold: 1e-9, MaxIters: 10}, 4)
	if len(res.Scores) != 1 {
		t.Fatalf("scores = %v", res.Scores)
	}
	if math.Abs(res.Scores[0]-0.15) > 1e-9 {
		t.Errorf("isolated node score = %v, want 0.15", res.Scores[0])
	}
}

func TestParallelWarmStart(t *testing.T) {
	g, r, base := randomWorld(t, 9, 300, 1500)
	opts := Options{Threshold: 1e-10, MaxIters: 1000}
	cold := runWorkers(g, r, base, opts, 4)
	optsWarm := opts
	optsWarm.Init = cold.Scores
	warm := runWorkers(g, r, base, optsWarm, 4)
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start did not converge faster: %d vs %d", warm.Iterations, cold.Iterations)
	}
}

func BenchmarkPowerIterationParallel(b *testing.B) {
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
		runWorkers(g, r, base, opts, 0)
	}
}

// TestPropertyParallelEqualsSerial: quick-checked equivalence on random
// graph/base combinations.
func TestPropertyParallelEqualsSerial(t *testing.T) {
	prop := func(seed int64, workers uint8) bool {
		g, r, base := randomWorld(&testing.T{}, seed, 60, 300)
		opts := Options{Threshold: 1e-9, MaxIters: 500}
		a := run(g, r, base, opts)
		b := runWorkers(g, r, base, opts, 1+int(workers%7))
		for i := range a.Scores {
			if math.Abs(a.Scores[i]-b.Scores[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

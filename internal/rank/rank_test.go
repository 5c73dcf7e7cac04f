package rank

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"authorityflow/internal/graph"
)

// paperGraph builds a small citation-only graph: n Paper nodes plus the
// listed cites edges, with forward rate fw and backward rate bw.
func paperGraph(t testing.TB, n int, edges [][2]int, fw, bw float64) (*graph.Graph, *graph.Rates) {
	t.Helper()
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = b.AddNode(paper)
	}
	for _, e := range edges {
		b.AddEdge(ids[e[0]], ids[e[1]], cites)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, fw)
	r.Set(cites, graph.Backward, bw)
	return g, r
}

func TestRunClosedFormTwoNodes(t *testing.T) {
	// A -> B with rate 0.7 forward, 0 backward, d = 0.85, uniform base.
	// Fixpoint: r(A) = 0.15*0.5 = 0.075,
	// r(B) = 0.075 + 0.85*0.7*r(A) = 0.119625.
	g, r := paperGraph(t, 2, [][2]int{{0, 1}}, 0.7, 0)
	base := []float64{0.5, 0.5}
	res := run(g, r, base, Options{Damping: 0.85, Threshold: 1e-12, MaxIters: 500})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.Scores[0]-0.075) > 1e-9 {
		t.Errorf("r(A) = %v, want 0.075", res.Scores[0])
	}
	if math.Abs(res.Scores[1]-0.119625) > 1e-9 {
		t.Errorf("r(B) = %v, want 0.119625", res.Scores[1])
	}
}

func TestRunEquation1Split(t *testing.T) {
	// A cites B and C: each forward arc carries 0.7/2 (Equation 1).
	g, r := paperGraph(t, 3, [][2]int{{0, 1}, {0, 2}}, 0.7, 0)
	base := []float64{1, 0, 0}
	res := run(g, r, base, Options{Damping: 0.85, Threshold: 1e-12, MaxIters: 500})
	if math.Abs(res.Scores[1]-res.Scores[2]) > 1e-12 {
		t.Errorf("B and C should tie: %v vs %v", res.Scores[1], res.Scores[2])
	}
	// r(A) = 0.15, r(B) = 0.85*0.35*0.15.
	if want := 0.85 * 0.35 * 0.15; math.Abs(res.Scores[1]-want) > 1e-9 {
		t.Errorf("r(B) = %v, want %v", res.Scores[1], want)
	}
}

func TestPageRankCycleUniform(t *testing.T) {
	// A 4-cycle with symmetric rates converges to uniform PageRank.
	g, r := paperGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 0.5, 0.5)
	res := PageRank(g, r, Options{Threshold: 1e-12, MaxIters: 1000})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for i, s := range res.Scores {
		if math.Abs(s-res.Scores[0]) > 1e-9 {
			t.Errorf("node %d score %v differs from node 0 %v", i, s, res.Scores[0])
		}
	}
	// With total outgoing rate 1 per node the scores sum to 1.
	sum := 0.0
	for _, s := range res.Scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("scores sum to %v, want 1", sum)
	}
}

func TestScoresLeakWhenRatesBelowOne(t *testing.T) {
	// With outgoing rates summing below 1, authority leaks and the
	// total mass stays below 1 — matching the paper's example where the
	// ObjectRank vector sums to ~0.29.
	g, r := paperGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 0.3, 0)
	res := PageRank(g, r, Options{Threshold: 1e-12, MaxIters: 1000})
	sum := 0.0
	for _, s := range res.Scores {
		sum += s
	}
	if sum >= 1 {
		t.Errorf("scores sum to %v, want < 1 with leakage", sum)
	}
	if sum <= 0 {
		t.Errorf("scores sum to %v, want > 0", sum)
	}
}

func TestObjectRankBaseSet(t *testing.T) {
	// Chain 0 -> 1 -> 2. Base set {0}: authority reaches 2 even though
	// it is not in the base set; node outside any path stays at 0.
	g, r := paperGraph(t, 4, [][2]int{{0, 1}, {1, 2}}, 0.7, 0)
	res := ObjectRank(g, r, []graph.NodeID{0}, Options{Threshold: 1e-12, MaxIters: 500})
	if res.Scores[2] <= 0 {
		t.Error("node 2 should receive flowing authority")
	}
	if res.Scores[0] <= res.Scores[2] {
		t.Error("base-set node should outrank a 2-hop neighbor")
	}
	if res.Scores[3] != 0 {
		t.Errorf("disconnected node score = %v, want 0", res.Scores[3])
	}
	// Empty base set: all zero.
	res = ObjectRank(g, r, nil, Options{Threshold: 1e-12, MaxIters: 50})
	for i, s := range res.Scores {
		if s != 0 {
			t.Errorf("node %d = %v with empty base set", i, s)
		}
	}
}

func TestWarmStartFewerIterations(t *testing.T) {
	// A larger random graph; warm-starting from the converged scores of
	// a similar query must converge in fewer iterations (Figures
	// 14b-17b of the paper).
	rng := rand.New(rand.NewSource(42))
	var edges [][2]int
	const n = 400
	for i := 0; i < 4*n; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	g, r := paperGraph(t, n, edges, 0.6, 0.2)

	base := make([]float64, n)
	for i := 0; i < 20; i++ {
		base[rng.Intn(n)] = 1
	}
	NormalizeDist(base)
	opts := Options{Threshold: 1e-9, MaxIters: 2000}
	cold := run(g, r, base, opts)
	if !cold.Converged {
		t.Fatal("cold run did not converge")
	}

	// Perturb the base slightly (one keyword changed) and rerun warm.
	base2 := append([]float64(nil), base...)
	base2[rng.Intn(n)] += 0.05
	NormalizeDist(base2)
	optsWarm := opts
	optsWarm.Init = cold.Scores
	warm := run(g, r, base2, optsWarm)
	coldRerun := run(g, r, base2, opts)
	if !warm.Converged || !coldRerun.Converged {
		t.Fatal("reruns did not converge")
	}
	if warm.Iterations >= coldRerun.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warm.Iterations, coldRerun.Iterations)
	}
	// Same fixpoint either way.
	for i := range warm.Scores {
		if math.Abs(warm.Scores[i]-coldRerun.Scores[i]) > 1e-6 {
			t.Fatalf("warm and cold disagree at %d: %v vs %v", i, warm.Scores[i], coldRerun.Scores[i])
		}
	}
}

func TestMaxItersStopsWithoutConvergence(t *testing.T) {
	g, r := paperGraph(t, 2, [][2]int{{0, 1}}, 0.7, 0.1)
	res := run(g, r, []float64{0.5, 0.5}, Options{Threshold: 1e-15, MaxIters: 2})
	if res.Converged {
		t.Error("2 iterations should not reach 1e-15")
	}
	if res.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", res.Iterations)
	}
}

func TestObjectRankMulti(t *testing.T) {
	// Two keywords with different base sets. The combined score must be
	// positive exactly for nodes reachable from BOTH base sets (product
	// semantics).
	g, r := paperGraph(t, 5, [][2]int{{0, 2}, {1, 2}, {2, 3}}, 0.7, 0)
	bs1 := []graph.NodeID{0}
	bs2 := []graph.NodeID{1}
	res := ObjectRankMulti(g, r, [][]graph.NodeID{bs1, bs2}, Options{Threshold: 1e-12, MaxIters: 500})
	if res.Scores[2] <= 0 || res.Scores[3] <= 0 {
		t.Error("nodes reachable from both base sets should score > 0")
	}
	if res.Scores[4] != 0 {
		t.Error("unreachable node should score 0")
	}
	// Node 0 is only in keyword 1's reach, so its product is 0.
	if res.Scores[1] != 0 {
		t.Errorf("node 1 = %v, want 0 (unreachable from base set 1)", res.Scores[1])
	}
	if res.Iterations <= 0 {
		t.Error("Iterations should accumulate across keywords")
	}
}

func TestNormalizingExponent(t *testing.T) {
	if g := normalizingExponent(0); g != 1 {
		t.Errorf("g(0) = %v", g)
	}
	if g := normalizingExponent(2); g != 1 {
		t.Errorf("g(2) = %v, want clamp to 1", g)
	}
	g1000 := normalizingExponent(1000)
	g10 := normalizingExponent(10)
	if !(g1000 < g10 && g10 < 1) {
		t.Errorf("exponent not decreasing: g(10)=%v g(1000)=%v", g10, g1000)
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.3, 0.9, 0.1, 0.9, 0.5}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("TopK len = %d", len(top))
	}
	// Ties broken by ascending node ID: 1 before 3.
	if top[0].Node != 1 || top[1].Node != 3 || top[2].Node != 4 {
		t.Errorf("TopK order = %v", top)
	}
	if got := TopK(scores, 100); len(got) != len(scores) {
		t.Errorf("TopK over-length = %d", len(got))
	}
	if got := TopK(scores, 0); got != nil {
		t.Errorf("TopK(0) = %v", got)
	}
}

func TestTopKOfType(t *testing.T) {
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	author := s.AddNodeType("Author")
	by := s.MustAddEdgeType("by", paper, author)
	b := graph.NewBuilder(s)
	p0 := b.AddNode(paper)
	a0 := b.AddNode(author)
	p1 := b.AddNode(paper)
	b.AddEdge(p0, a0, by)
	g := b.MustBuild()
	scores := []float64{0.2, 0.9, 0.4}
	top := TopKOfType(g, scores, paper, 10)
	if len(top) != 2 || top[0].Node != p1 || top[1].Node != p0 {
		t.Errorf("TopKOfType = %v", top)
	}
	if got := TopKOfType(g, scores, author, 0); got != nil {
		t.Errorf("TopKOfType k=0 = %v", got)
	}
}

func TestNormalizeDist(t *testing.T) {
	v := []float64{1, 3}
	NormalizeDist(v)
	if v[0] != 0.25 || v[1] != 0.75 {
		t.Errorf("NormalizeDist = %v", v)
	}
	z := []float64{0, 0}
	NormalizeDist(z)
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero vector changed: %v", z)
	}
}

// TestPropertyScoresNonNegativeBounded: for random graphs and random
// normalized base vectors, all scores are non-negative and the total
// mass never exceeds 1 (authority only leaks, never appears).
func TestPropertyScoresNonNegativeBounded(t *testing.T) {
	prop := func(seed int64, nEdges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 15
		var edges [][2]int
		for i := 0; i < int(nEdges); i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		gt := &testing.T{}
		g, r := paperGraph(gt, n, edges, 0.5, 0.3)
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.Float64()
		}
		NormalizeDist(base)
		res := run(g, r, base, Options{Threshold: 1e-10, MaxIters: 500})
		sum := 0.0
		for _, s := range res.Scores {
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTopKMatchesNaiveSort cross-checks the bounded-heap selection
// against a full sort on random score vectors, including heavy ties.
func TestTopKMatchesNaiveSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			// Quantize to force ties.
			scores[i] = float64(rng.Intn(8)) / 7
		}
		k := 1 + rng.Intn(n+5)
		got := TopK(scores, k)

		naive := make([]Ranked, n)
		for i, s := range scores {
			naive[i] = Ranked{Node: graph.NodeID(i), Score: s}
		}
		sort.Slice(naive, func(i, j int) bool {
			if naive[i].Score != naive[j].Score {
				return naive[i].Score > naive[j].Score
			}
			return naive[i].Node < naive[j].Node
		})
		want := naive
		if k < len(want) {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rank %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	scores := make([]float64, 500000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(scores, 10)
	}
}

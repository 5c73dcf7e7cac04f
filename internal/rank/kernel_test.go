package rank

import (
	"math"
	"testing"

	"authorityflow/internal/graph"
)

// fig1Fixture builds the paper's Figure 1 seven-node DBLP subgraph
// (nodes v1..v7 at IDs 0..6) with the Figure 3 authority transfer
// rates: cites 0.7/0.0, by 0.2/0.2, hasInstance 0.3/0.3, contains
// 0.3/0.1.
func fig1Fixture(t testing.TB) (*graph.Graph, *graph.Rates) {
	t.Helper()
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	conference := s.AddNodeType("Conference")
	year := s.AddNodeType("Year")
	author := s.AddNodeType("Author")
	cites := s.MustAddEdgeType("cites", paper, paper)
	hasInstance := s.MustAddEdgeType("hasInstance", conference, year)
	contains := s.MustAddEdgeType("contains", year, paper)
	by := s.MustAddEdgeType("by", paper, author)

	b := graph.NewBuilder(s)
	v1 := b.AddNode(paper)
	v2 := b.AddNode(conference)
	v3 := b.AddNode(year)
	v4 := b.AddNode(paper)
	v5 := b.AddNode(paper)
	v6 := b.AddNode(author)
	v7 := b.AddNode(paper)
	b.AddEdge(v2, v3, hasInstance)
	b.AddEdge(v3, v1, contains)
	b.AddEdge(v3, v5, contains)
	b.AddEdge(v1, v7, cites)
	b.AddEdge(v4, v7, cites)
	b.AddEdge(v4, v5, cites)
	b.AddEdge(v5, v7, cites)
	b.AddEdge(v4, v6, by)
	b.AddEdge(v5, v6, by)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := graph.NewRates(s)
	r.Set(cites, graph.Forward, 0.7)
	r.Set(cites, graph.Backward, 0.0)
	r.Set(by, graph.Forward, 0.2)
	r.Set(by, graph.Backward, 0.2)
	r.Set(hasInstance, graph.Forward, 0.3)
	r.Set(hasInstance, graph.Backward, 0.3)
	r.Set(contains, graph.Forward, 0.3)
	r.Set(contains, graph.Backward, 0.1)
	return g, r
}

// run is an unpooled Iterate of the arc-struct body.
func run(g *graph.Graph, rates *graph.Rates, base []float64, opts Options) Result {
	return Iterate(g, rates.Vector(), base, opts, nil, nil)
}

// fig1Base is the Q=[olap] jump distribution of the golden fixture:
// v1 and v4 weighted 0.4/0.6.
func fig1Base(g *graph.Graph) []float64 {
	base := make([]float64, g.NumNodes())
	base[0] = 0.4
	base[3] = 0.6
	return base
}

// fig1GoldenBits holds the exact IEEE-754 bit patterns of the seed
// implementation's converged scores on the Figure 1 graph (damping
// 0.85, threshold 1e-10, recorded from the pre-refactor scatter loop).
// The unified kernel's serial path must reproduce them bit for bit.
var fig1GoldenBits = [7]uint64{
	0x3faf42d6b9f075eb, // v1 0.06105681438223683
	0x3f615099cd6ae62d, // v2 0.002113628764473649
	0x3f80f9afe1fd9fec, // v3 0.008288740238370416
	0x3fb77da86c9ddc5e, // v4 0.09176113750241785
	0x3f9ed6f64b7371cf, // v5 0.03011689029232106
	0x3f95376e519c0ea8, // v6 0.020719264727644543
	0x3fb4e0488b3affad, // v7 0.08154729270154233
}

const fig1GoldenIters = 20

func TestKernelSerialBitIdenticalToSeedFig1(t *testing.T) {
	g, r := fig1Fixture(t)
	res := run(g, r, fig1Base(g), Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Iterations != fig1GoldenIters {
		t.Errorf("Iterations = %d, want %d (convergence decision drifted from seed)", res.Iterations, fig1GoldenIters)
	}
	for i, want := range fig1GoldenBits {
		if got := math.Float64bits(res.Scores[i]); got != want {
			t.Errorf("score[v%d] bits = %#016x (%v), want %#016x (%v)",
				i+1, got, res.Scores[i], want, math.Float64frombits(want))
		}
	}
}

func TestKernelPooledBitIdenticalAndReusable(t *testing.T) {
	g, r := fig1Fixture(t)
	pool := NewBufferPool()
	opts := Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}
	for round := 0; round < 3; round++ {
		res := Iterate(g, r.Vector(), fig1Base(g), opts, pool, nil)
		for i, want := range fig1GoldenBits {
			if got := math.Float64bits(res.Scores[i]); got != want {
				t.Fatalf("round %d: pooled score[v%d] bits = %#016x, want %#016x", round, i+1, got, want)
			}
		}
		res.ReleaseTo(pool)
		if res.Scores != nil {
			t.Fatal("ReleaseTo did not clear Scores")
		}
	}
}

// TestKernelParallelMatchesSerialFig1: solves running at the same time
// over one shared buffer pool each reproduce the seed's golden bits.
// Recycled buffers carry another solve's stale contents, which the
// kernel must overwrite before reading.
func TestKernelParallelMatchesSerialFig1(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	opts := Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}
	pool := NewBufferPool()
	for _, callers := range []int{2, 3, 7, 16} {
		concurrently(callers, func(int) {
			for round := 0; round < 4; round++ {
				res := Iterate(g, alpha, fig1Base(g), opts, pool, nil)
				if res.Iterations != fig1GoldenIters {
					t.Errorf("callers=%d: Iterations = %d, want %d", callers, res.Iterations, fig1GoldenIters)
				}
				for i, want := range fig1GoldenBits {
					if got := math.Float64bits(res.Scores[i]); got != want {
						t.Errorf("callers=%d: score[v%d] bits = %#016x, want %#016x", callers, i+1, got, want)
					}
				}
				res.ReleaseTo(pool)
			}
		})
	}
}

// dblpGolden holds checksums of the seed implementation's output on a
// seeded DBLPtop-scale corpus (scale 0.05, seed 7, base = uniform over
// every 37th node, damping 0.85, threshold 1e-9): node and iteration
// counts, ascending-order score sum, and spot-check score bits.
func dblpFixture(t testing.TB) (*graph.Graph, *graph.Rates, []float64) {
	t.Helper()
	g, r, err := DBLPCorpus()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	base := make([]float64, n)
	for i := 0; i < n; i += 37 {
		base[i] = 1
	}
	NormalizeDist(base)
	return g, r, base
}

// DBLPCorpus generates dblpFixture's corpus: datagen's DBLPtop at scale
// 0.05, seed 7. This package's tests cannot import datagen, which
// imports ir, which imports rank, so dblp_test.go sets it from the
// external test package.
var DBLPCorpus func() (*graph.Graph, *graph.Rates, error)

func TestKernelSerialBitIdenticalToSeedDBLP(t *testing.T) {
	g, r, base := dblpFixture(t)
	if n := g.NumNodes(); n != 1128 {
		t.Fatalf("fixture drifted: %d nodes, want 1128 (golden bits are void)", n)
	}
	res := run(g, r, base, Options{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000})
	if !res.Converged || res.Iterations != 35 {
		t.Fatalf("converged=%v iterations=%d, want converged in 35 (seed)", res.Converged, res.Iterations)
	}
	sum := 0.0
	nonzero := 0
	for _, s := range res.Scores {
		sum += s
		if s != 0 {
			nonzero++
		}
	}
	if nonzero != 1119 {
		t.Errorf("nonzero scores = %d, want 1119", nonzero)
	}
	if bits := math.Float64bits(sum); bits != 0x3fd7247ac37c7d48 {
		t.Errorf("score-sum bits = %#016x (%v), want 0x3fd7247ac37c7d48", bits, sum)
	}
	n := g.NumNodes()
	spot := map[int]uint64{
		0:     0x3f85f07d02ed19b2,
		1:     0x3f640a40ead31216,
		n / 3: 0x3ed86de7ed83b20e,
		n / 2: 0x3f262c512c05a310,
		n - 1: 0x3ef0fc44450a261a,
	}
	for i, want := range spot {
		if got := math.Float64bits(res.Scores[i]); got != want {
			t.Errorf("score[%d] bits = %#016x (%v), want %#016x", i, got, res.Scores[i], want)
		}
	}
}

// TestKernelParallelMatchesSerialDBLP is the Fig. 1 check above on the
// seeded DBLP corpus: four concurrent pooled solves, each bit-identical
// to the unpooled one.
func TestKernelParallelMatchesSerialDBLP(t *testing.T) {
	g, r, base := dblpFixture(t)
	opts := Options{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000}
	serial := run(g, r, base, opts)
	pool := NewBufferPool()
	concurrently(4, func(c int) {
		for round := 0; round < 2; round++ {
			res := Iterate(g, r.Vector(), base, opts, pool, nil)
			if v := firstDiff(res.Scores, serial.Scores); v >= 0 || res.Iterations != serial.Iterations {
				t.Errorf("caller %d: iterations %d vs %d, first differing node %d", c, res.Iterations, serial.Iterations, v)
			}
			res.ReleaseTo(pool)
		}
	})
}

func TestKernelDegradesStaleInit(t *testing.T) {
	// Warm-start-after-graph-rebuild contract: the seed silently
	// ignored a wrong-length Init vector, then a later version panicked
	// on it — which let a SwapCorpus racing a basis rebuild crash a
	// serving goroutine. The kernel now DEGRADES:
	// the stale vector is dropped, the run starts cold, and
	// Result.InitDropped reports the drop. The degraded run must be
	// bit-identical to an explicitly cold one.
	g, r := fig1Fixture(t)
	first := run(g, r, fig1Base(g), Options{})

	// "Rebuild" a larger graph (one extra paper) and warm-start from
	// the old, now-stale score vector.
	s := graph.NewSchema()
	paper := s.AddNodeType("Paper")
	cites := s.MustAddEdgeType("cites", paper, paper)
	b := graph.NewBuilder(s)
	var ids []graph.NodeID
	for i := 0; i < g.NumNodes()+1; i++ {
		ids = append(ids, b.AddNode(paper))
	}
	b.AddEdge(ids[0], ids[1], cites)
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r2 := graph.NewRates(s)
	r2.Set(cites, graph.Forward, 0.7)

	base2 := make([]float64, g2.NumNodes())
	base2[0] = 1
	stale := run(g2, r2, base2, Options{Init: first.Scores})
	if !stale.InitDropped {
		t.Fatal("stale Init was not reported as dropped")
	}
	cold := run(g2, r2, base2, Options{})
	if cold.InitDropped {
		t.Fatal("cold run reported a dropped Init")
	}
	if stale.Iterations != cold.Iterations || stale.Converged != cold.Converged {
		t.Fatalf("degraded run (iters=%d conv=%v) differs from cold (iters=%d conv=%v)",
			stale.Iterations, stale.Converged, cold.Iterations, cold.Converged)
	}
	for i := range cold.Scores {
		if math.Float64bits(stale.Scores[i]) != math.Float64bits(cold.Scores[i]) {
			t.Fatalf("score[%d]: degraded %v != cold %v", i, stale.Scores[i], cold.Scores[i])
		}
	}
	// A RIGHT-length Init must still be honored, not dropped.
	warm := run(g, r, fig1Base(g), Options{Init: first.Scores})
	if warm.InitDropped {
		t.Fatal("matching Init reported as dropped")
	}
}

func TestKernelPanicsOnBadBase(t *testing.T) {
	g, r := fig1Fixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a base vector of the wrong length")
		}
	}()
	run(g, r, make([]float64, g.NumNodes()+3), Options{})
}

// TestOptionsNormalizedSentinels: zero fields take the paper defaults,
// the sentinels pass through to the kernel as they are, and Normalized
// is idempotent on every combination of them.
func TestOptionsNormalizedSentinels(t *testing.T) {
	def := Options{}.Normalized()
	if def.Damping != 0.85 || def.Threshold != 0.002 || def.MaxIters != 200 {
		t.Errorf("zero value normalized to %+v, want paper defaults", def)
	}
	z := Options{Threshold: ZeroThreshold, MaxIters: ZeroIters}.Normalized()
	if z.Damping != 0.85 || z.Threshold != ZeroThreshold || z.MaxIters != ZeroIters {
		t.Errorf("sentinels normalized to %+v, want them kept", z)
	}
	for _, o := range []Options{
		{},
		{Threshold: ZeroThreshold},
		{MaxIters: ZeroIters},
		{Threshold: ZeroThreshold, MaxIters: ZeroIters},
		{Damping: 0.5, Threshold: ZeroThreshold, MaxIters: 13},
	} {
		n, nn := o.Normalized(), o.Normalized().Normalized()
		if nn.Damping != n.Damping || nn.Threshold != n.Threshold || nn.MaxIters != n.MaxIters {
			t.Errorf("%+v: Normalized() = %+v, Normalized().Normalized() = %+v", o, n, nn)
		}
	}
}

func TestZeroItersReturnsStartVector(t *testing.T) {
	g, r := fig1Fixture(t)
	base := fig1Base(g)
	res := run(g, r, base, Options{MaxIters: ZeroIters})
	if res.Iterations != 0 || res.Converged {
		t.Errorf("iterations=%d converged=%v, want 0/false", res.Iterations, res.Converged)
	}
	for i := range base {
		if res.Scores[i] != base[i] {
			t.Errorf("score[%d] = %v, want base %v with zero iterations", i, res.Scores[i], base[i])
		}
	}
}

func TestZeroThresholdRunsAllIterations(t *testing.T) {
	g, r := fig1Fixture(t)
	res := run(g, r, fig1Base(g), Options{Threshold: ZeroThreshold, MaxIters: 17})
	if res.Converged || res.Iterations != 17 {
		t.Errorf("iterations=%d converged=%v, want exactly 17/false", res.Iterations, res.Converged)
	}
}

// TestKernelAllocsBounded asserts the pooled steady state allocates at
// most a small constant per run.
func TestKernelAllocsBounded(t *testing.T) {
	g, r := fig1Fixture(t)
	alpha := r.Vector()
	base := fig1Base(g)
	pool := NewBufferPool()
	opts := Options{Damping: 0.85, Threshold: 1e-10, MaxIters: 500}
	// Warm the pool.
	res := Iterate(g, alpha, base, opts, pool, nil)
	res.ReleaseTo(pool)
	allocs := testing.AllocsPerRun(20, func() {
		r := Iterate(g, alpha, base, opts, pool, nil)
		r.ReleaseTo(pool)
	})
	if allocs > kernelAllocsPerRun {
		t.Errorf("pooled serial kernel allocates %.0f objects/run, want <= %d", allocs, kernelAllocsPerRun)
	}
}

func BenchmarkKernelPooledSteadyState(b *testing.B) {
	g, r, base := dblpFixture(b)
	alpha := r.Vector()
	pool := NewBufferPool()
	opts := Options{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Iterate(g, alpha, base, opts, pool, nil)
		res.ReleaseTo(pool)
	}
}

func BenchmarkKernelUnpooled(b *testing.B) {
	g, r, base := dblpFixture(b)
	alpha := r.Vector()
	opts := Options{Damping: 0.85, Threshold: 1e-9, MaxIters: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Iterate(g, alpha, base, opts, nil, nil)
	}
}

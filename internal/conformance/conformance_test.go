// Package conformance holds the repository's one cross-package
// correctness table: every serving path that produces authority-flow
// scores is checked, on seeded random corpora, against a reference path
// within a DECLARED tolerance class. It is test-only; the paths
// themselves are reached through the few functions of paths_test.go, so
// a refactor of the solve stack edits that file and nothing here.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/profile"
	"authorityflow/internal/rank"
)

// class is the agreement a path owes its reference.
type class int

const (
	// bitIdentical: every float64 has the same bit pattern.
	bitIdentical class = iota
	// within1e12: max elementwise difference ≤ 1e-12. Paths that reach
	// the same fixpoint by a different floating-point route (summation
	// order, start vector, linear combination), at the tight threshold
	// the worlds are built with.
	within1e12
	// within1e9: max elementwise difference ≤ 1e-9 against the dense
	// oracle, which shares no code with the kernel.
	within1e9
)

func (c class) String() string {
	return [...]string{"Float64bits-identical", "≤1e-12", "≤1e-9"}[c]
}

// agrees reports whether g meets the class against its reference r.
func (c class) agrees(g, r float64) bool {
	switch c {
	case within1e12:
		return math.Abs(g-r) <= 1e-12
	case within1e9:
		return math.Abs(g-r) <= 1e-9
	}
	return math.Float64bits(g) == math.Float64bits(r)
}

// tight is the rank configuration of every world: a threshold far below
// the classes' tolerances, so a disagreement is a defect and not an
// early stop.
var tight = rank.Options{Damping: 0.85, Threshold: 1e-14, MaxIters: 4000}

const topK = 7

// world is one seeded random corpus with everything the table's paths
// need.
type world struct {
	g     *graph.Graph
	rates *graph.Rates
	// labels, texts and edges are what g was built from, kept so the
	// world can be rebuilt without one edge (audit_test.go).
	labels []graph.TypeID
	texts  []string
	edges  []graph.Edge
	pin    *core.Pinned
	rev    *core.Pinned // authority engine over the explicitly reversed graph
	eng    *core.Engine
	// queries mixes single-term and multi-term queries (distinct terms,
	// so a single-term query has weight exactly 1) and one that matches
	// nothing; eleven, so panels of 2 and 8 both end ragged.
	queries []*ir.Query
	// reweighted are single-term queries at a weight other than 1.
	reweighted []*ir.Query
	terms      []string
}

var words = []string{"olap", "cube", "index", "range", "join", "graph", "rank", "flow", "cache", "query", "tuple", "view"}

func newWorld(t *testing.T, seed int64) *world {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := graph.NewSchema()
	nTypes := 2 + rng.Intn(3)
	types := make([]graph.TypeID, nTypes)
	for i := range types {
		types[i] = s.AddNodeType(fmt.Sprintf("T%d", i))
	}
	type etype struct {
		id       graph.EdgeTypeID
		from, to graph.TypeID
	}
	var etypes []etype
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		from, to := types[rng.Intn(nTypes)], types[rng.Intn(nTypes)]
		etypes = append(etypes, etype{s.MustAddEdgeType(fmt.Sprintf("e%d", i), from, to), from, to})
	}
	w := &world{terms: words}
	byType := make(map[graph.TypeID][]graph.NodeID)
	for i, n := 0, 40+rng.Intn(80); i < n; i++ {
		text := ""
		for j, m := 0, 2+rng.Intn(5); j < m; j++ {
			text += words[rng.Intn(len(words))] + " "
		}
		ty := types[i%nTypes] // every type is populated
		byType[ty] = append(byType[ty], graph.NodeID(len(w.labels)))
		w.labels, w.texts = append(w.labels, ty), append(w.texts, text)
	}
	for _, et := range etypes {
		from, to := byType[et.from], byType[et.to]
		for i, n := 0, 30+rng.Intn(120); i < n; i++ {
			w.edges = append(w.edges, graph.Edge{From: from[rng.Intn(len(from))], To: to[rng.Intn(len(to))], Type: et.id})
		}
	}
	g := w.build(t, s, -1)
	rates := graph.NewRates(s)
	for tt := 0; tt < s.NumTransferTypes(); tt++ {
		if rng.Intn(5) > 0 { // leave some rates zero: the kernel skips those arcs
			if err := rates.SetRate(graph.TransferTypeID(tt), rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	rates.NormalizeOutgoing()

	w.g, w.rates = g, rates
	engine := func(g *graph.Graph) *core.Engine {
		e, err := core.NewEngine(g, rates, core.Config{Rank: tight})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	w.eng = engine(g)
	w.pin = w.eng.Pin()
	w.rev = engine(g.Reversed()).Pin()
	for i := 0; i < 10; i++ {
		q := ir.NewQuery(words[rng.Intn(len(words))])
		for j := rng.Intn(3); j > 0; j-- {
			if extra := words[rng.Intn(len(words))]; !q.Has(extra) {
				q.Add(extra, 0.25+rng.Float64())
			}
		}
		w.queries = append(w.queries, q)
	}
	w.queries = append(w.queries, ir.NewQuery("absent"))
	for i := 0; i < 3; i++ {
		q := ir.NewQuery(words[rng.Intn(len(words))])
		q.SetWeight(q.Terms()[0], 0.25+2*rng.Float64())
		w.reweighted = append(w.reweighted, q)
	}
	return w
}

// fresh is a new engine over the world's graph under rates: a corpus
// generation of its own, so nothing an explain of another engine kept
// is visible to it.
func (w *world) fresh(t *testing.T, rates *graph.Rates) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(w.g, rates, core.Config{Rank: tight})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// build freezes the world's nodes and edges, all but edge skip (-1
// keeps every edge), into a graph over schema s.
func (w *world) build(t *testing.T, s *graph.Schema, skip int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(s)
	for i, ty := range w.labels {
		b.AddNode(ty, graph.Attr{Name: "Text", Value: w.texts[i]})
	}
	for i, e := range w.edges {
		if i != skip {
			b.AddEdge(e.From, e.To, e.Type)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// jumps returns the queries' normalized base distributions as dense
// vectors, skipping queries that match nothing.
func (w *world) jumps() [][]float64 {
	var out [][]float64
	for _, q := range w.queries {
		base := w.pin.BaseSet(q)
		if len(base) == 0 {
			continue
		}
		jump := make([]float64, w.g.NumNodes())
		for _, sd := range base {
			jump[sd.Doc] = sd.Score
		}
		out = append(out, jump)
	}
	return out
}

// denseSolve is the independent oracle: the Equation 4 fixpoint
// r = d·M·r + (1−d)·s on an explicit |V|×|V| transition matrix built
// from the FORWARD adjacency (the kernel gathers over the reverse CSR),
// with Kahan-compensated row sums, iterated to an L1 change below
// 1e-13. transpose solves on Mᵀ, which is hub mode's system.
func denseSolve(g *graph.Graph, alpha, jump []float64, d float64, transpose bool) []float64 {
	n := g.NumNodes()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		for _, a := range g.OutArcs(graph.NodeID(u)) {
			wt := alpha[a.Type] * float64(a.InvDeg)
			if transpose {
				m[u][a.To] += wt
			} else {
				m[a.To][u] += wt
			}
		}
	}
	r := append([]float64(nil), jump...)
	next := make([]float64, n)
	for it := 0; it < 100000; it++ {
		diff := 0.0
		for v := 0; v < n; v++ {
			sum, comp := 0.0, 0.0
			for u, wt := range m[v] {
				y := wt*r[u] - comp
				s := sum + y
				comp = (s - sum) - y
				sum = s
			}
			next[v] = (1-d)*jump[v] + d*sum
			diff += math.Abs(next[v] - r[v])
		}
		r, next = next, r
		if diff < 1e-13 {
			break
		}
	}
	return r
}

// oracle solves the queries densely in one direction.
func (w *world) oracle(qs []*ir.Query, transpose bool) [][]float64 {
	out := make([][]float64, len(qs))
	alpha := w.rates.Vector()
	for i, q := range qs {
		jump := make([]float64, w.g.NumNodes())
		for _, sd := range w.pin.BaseSet(q) {
			jump[sd.Doc] = sd.Score
		}
		out[i] = denseSolve(w.g, alpha, jump, tight.Damping, transpose)
	}
	return out
}

// singles solves every query on its own.
func singles(pin *core.Pinned, m core.Mode, qs []*ir.Query) func(*testing.T) [][]float64 {
	return func(t *testing.T) [][]float64 {
		out := make([][]float64, len(qs))
		for i, q := range qs {
			out[i] = solveOne(t, pin, m, q, nil)
		}
		return out
	}
}

// flatten renders a top-k answer as (node, score) pairs so the table can
// compare it like a vector.
func flatten(items []cache.ResultItem) []float64 {
	out := make([]float64, 0, 2*len(items))
	for _, it := range items {
		out = append(out, float64(it.Node), it.Score)
	}
	return out
}

func topKOf(scores []float64) []float64 {
	var out []float64
	for _, r := range rank.TopK(scores, topK) {
		out = append(out, float64(r.Node), r.Score)
	}
	return out
}

// twice repeats a path's output: the reference of a path that is run
// once missing the cache and once hitting it.
func twice(f func(*testing.T) [][]float64) func(*testing.T) [][]float64 {
	return func(t *testing.T) [][]float64 {
		v := f(t)
		return append(append([][]float64(nil), v...), v...)
	}
}

// concurrently runs f(i) for every i < n from callers goroutines at
// once, caller c taking every i ≡ c (mod callers), and returns the first
// error. The kernel runs each solve on its caller's goroutine, so what
// runs in parallel is several solves sharing an engine, a plan and a
// buffer pool; the rows named "workers=N" are N such callers.
func concurrently(callers, n int, f func(i int) error) error {
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			for i := c; i < n && errs[c] == nil; i += callers {
				errs[c] = f(i)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// path is one row of the table: got must agree with want within class.
type path struct {
	name      string
	class     class
	got, want func(*testing.T) [][]float64
}

func table(w *world) []path {
	ctx := context.Background()
	var rows []path

	// Kernel: a panel column against the same base set solved alone, and
	// panels solved by three callers at once against one caller.
	single := func(t *testing.T) [][]float64 { return kernelColumns(w, 1, 1) }
	for _, width := range []int{2, 8, 11} {
		width := width
		rows = append(rows, path{fmt.Sprintf("kernel panel B=%d column ≡ B=1", width), bitIdentical,
			func(t *testing.T) [][]float64 { return kernelColumns(w, width, 1) }, single})
	}
	rows = append(rows,
		path{"kernel B=1 workers=3 vs serial", within1e12,
			func(t *testing.T) [][]float64 { return kernelColumns(w, 1, 3) }, single},
		path{"kernel panel B=8 workers=3 vs serial", within1e12,
			func(t *testing.T) [][]float64 { return kernelColumns(w, 8, 3) }, single},
	)

	// Engine: directions, batches, concurrent callers, warm starts.
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		rows = append(rows,
			path{fmt.Sprintf("%s batch item ≡ single query", m), bitIdentical,
				func(t *testing.T) [][]float64 { return solveMany(t, w.pin, m, w.queries) },
				singles(w.pin, m, w.queries)},
			path{fmt.Sprintf("%s workers=3 vs serial", m), within1e12,
				func(t *testing.T) [][]float64 { return solveConcurrently(t, w.pin, m, w.queries, 3) },
				singles(w.pin, m, w.queries)},
			path{fmt.Sprintf("%s donated warm start vs global start", m), within1e12,
				func(t *testing.T) [][]float64 {
					out := make([][]float64, len(w.queries))
					prev := solveOne(t, w.pin, m, w.queries[0], nil)
					for i, q := range w.queries {
						out[i] = solveOne(t, w.pin, m, q, prev)
						prev = out[i]
					}
					return out
				}, singles(w.pin, m, w.queries)},
			path{fmt.Sprintf("%s single query vs dense oracle", m), within1e9,
				singles(w.pin, m, w.queries),
				func(t *testing.T) [][]float64 { return w.oracle(w.queries, m == core.ModeHub) }},
		)
	}
	rows = append(rows,
		path{"hub ≡ authority on the reversed corpus", bitIdentical,
			singles(w.pin, core.ModeHub, w.queries), singles(w.rev, core.ModeAuthority, w.queries)},
		path{"authority batch vs dense oracle", within1e9,
			func(t *testing.T) [][]float64 { return solveMany(t, w.pin, core.ModeAuthority, w.queries) },
			func(t *testing.T) [][]float64 { return w.oracle(w.queries, false) }},
	)

	// Cache: every mode, miss then hit, full vectors and top-k answers,
	// single queries and batches — every answer the cache solves. A
	// multi-keyword query asked alone is solved here, none of its terms
	// having been asked alone before it; a batch assembles its
	// multi-keyword items from term vectors, so its row takes the
	// single-keyword queries and assembledRows the rest.
	var oneTerm []*ir.Query
	for _, q := range w.queries {
		if q.Len() == 1 {
			oneTerm = append(oneTerm, q)
		}
	}
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		uncachedTopK := func(qs []*ir.Query) func(t *testing.T) [][]float64 {
			return func(t *testing.T) [][]float64 {
				out := singles(w.pin, m, qs)(t)
				for i := range out {
					out[i] = topKOf(out[i])
				}
				return out
			}
		}
		rows = append(rows,
			path{fmt.Sprintf("%s cached vector (miss, hit) ≡ uncached", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					c := cache.New(w.eng, cache.Options{})
					var out [][]float64
					for pass := 0; pass < 2; pass++ {
						for _, q := range w.queries {
							res, err := c.RankModePinnedCtx(ctx, w.pin, q, m)
							if err != nil {
								t.Fatal(err)
							}
							out = append(out, res.Scores)
						}
					}
					return out
				}, twice(singles(w.pin, m, w.queries))},
			path{fmt.Sprintf("%s cached top-k (miss, hit) ≡ uncached", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					c := cache.New(w.eng, cache.Options{})
					var out [][]float64
					for pass := 0; pass < 2; pass++ {
						for _, q := range w.queries {
							ans, err := c.QueryModePinnedCtx(ctx, w.pin, q, topK, m)
							if err != nil {
								t.Fatal(err)
							}
							out = append(out, flatten(ans.Results))
						}
					}
					return out
				}, twice(uncachedTopK(w.queries))},
			path{fmt.Sprintf("%s cached batch (miss, hit) ≡ uncached", m), bitIdentical,
				func(t *testing.T) [][]float64 {
					c := cache.New(w.eng, cache.Options{})
					var out [][]float64
					for pass := 0; pass < 2; pass++ {
						for _, a := range batch(t, c, w.pin, m, oneTerm) {
							out = append(out, flatten(a.Results))
						}
					}
					return out
				}, twice(uncachedTopK(oneTerm))},
		)
	}

	// The term-vector cache solves a single-term query at weight 1
	// whatever weight it arrived with. Normalizing the base set cancels
	// the weight only up to rounding, so this path owes the tolerance
	// class, not bit identity.
	rows = append(rows, path{"cached single-term query at weight ≠ 1 vs uncached", within1e12,
		func(t *testing.T) [][]float64 {
			c := cache.New(w.eng, cache.Options{})
			out := make([][]float64, len(w.reweighted))
			for i, q := range w.reweighted {
				res, err := c.RankModePinnedCtx(ctx, w.pin, q, core.ModeAuthority)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = res.Scores
			}
			return out
		}, singles(w.pin, core.ModeAuthority, w.reweighted)})

	// Profile tier: a blend of term fixpoints read through a serving
	// cache, against the personalized jump solved directly, and against
	// the dense oracle.
	mixture := map[string]float64{w.terms[0]: 0.5, w.terms[1]: 0.3, w.terms[2]: 0.2}
	const beta = 0.35
	combined := func(t *testing.T) [][]float64 {
		m := blender(t, cache.New(w.eng, cache.Options{}))
		out := make([][]float64, len(w.queries))
		for i, q := range w.queries {
			out[i] = blend(t, m, w.pin, solveOne(t, w.pin, core.ModeAuthority, q, nil), mixture, beta)
		}
		return out
	}
	mixtureJumps := func(t *testing.T) [][]float64 {
		basis := panel(t, blender(t, cache.New(w.eng, cache.Options{})), w.pin)
		out := make([][]float64, len(w.queries))
		for i, q := range w.queries {
			out[i] = basis.MixtureJump(w.pin, w.pin.BaseSet(q), mixture, beta)
		}
		return out
	}
	// An audited score must be reproducible: the same panel, query and
	// mixture give the same bits on every call. Eight mixture terms, so a
	// summation order that followed Go's map iteration would show.
	repeated := func(t *testing.T) [][]float64 {
		m := blender(t, cache.New(w.eng, cache.Options{}))
		basis := panel(t, m, w.pin)
		wide := make(map[string]float64)
		for i, term := range w.terms[:8] {
			wide[term] = 1 / float64(i+3)
		}
		q := w.queries[0]
		scores := solveOne(t, w.pin, core.ModeAuthority, q, nil)
		var out [][]float64
		for i := 0; i < 50; i++ {
			out = append(out, blend(t, m, w.pin, scores, wide, beta), basis.MixtureJump(w.pin, w.pin.BaseSet(q), wide, beta))
		}
		return out
	}
	// A server's blend reads its term vectors through its serving cache,
	// so after a publish they are warm-started from the ones the previous
	// rates left resident (the donations), and owe vectors solved cold
	// under the new rates the solve tolerance.
	published := w.rates.Clone()
	vec := published.Vector()
	for i := range vec {
		vec[i] *= 1 + 0.5*float64(i%3)
	}
	if err := published.SetVector(vec); err != nil {
		panic(err)
	}
	published.NormalizeOutgoing()
	combinedUnder := func(t *testing.T, m *profile.Manager, pin *core.Pinned) [][]float64 {
		out := make([][]float64, len(w.queries))
		for i, q := range w.queries {
			out[i] = blend(t, m, pin, solveOne(t, pin, core.ModeAuthority, q, nil), mixture, beta)
		}
		return out
	}
	rows = append(rows, path{"profile basis after a publish, warm-started through the serving cache, vs cold build", within1e12,
		func(t *testing.T) [][]float64 {
			eng, err := core.NewEngine(w.g, w.rates, core.Config{Rank: tight})
			if err != nil {
				t.Fatal(err)
			}
			c := cache.New(eng, cache.Options{})
			m := blender(t, c)
			combinedUnder(t, m, eng.Pin())
			if err := eng.SetRates(published); err != nil {
				t.Fatal(err)
			}
			pin := eng.Pin()
			out := combinedUnder(t, m, pin)
			var terms int64
			for term := range mixture {
				if panel(t, m, pin).Has(term) {
					terms++
				}
			}
			if n := c.Stats().WarmStarts; n != terms {
				t.Fatalf("%d of %d mixture vectors warm-started", n, terms)
			}
			return out
		},
		func(t *testing.T) [][]float64 {
			eng, err := core.NewEngine(w.g, published, core.Config{Rank: tight})
			if err != nil {
				t.Fatal(err)
			}
			return combinedUnder(t, blender(t, cache.New(eng, cache.Options{})), eng.Pin())
		}})
	rows = append(rows,
		path{"profile combination, repeated ×50 ≡ itself", bitIdentical, repeated,
			func(t *testing.T) [][]float64 {
				first := repeated(t)[:2]
				var out [][]float64
				for i := 0; i < 50; i++ {
					out = append(out, first...)
				}
				return out
			}},
		path{"profile basis combination vs direct solve of the mixture jump", within1e12, combined,
			func(t *testing.T) [][]float64 {
				out := mixtureJumps(t)
				for i := range out {
					out[i] = solveJump(t, w.pin, out[i])
				}
				return out
			}},
		path{"profile basis combination vs dense oracle", within1e9, combined,
			func(t *testing.T) [][]float64 {
				out := mixtureJumps(t)
				for i := range out {
					out[i] = denseSolve(w.g, w.rates.Vector(), out[i], tight.Damping, false)
				}
				return out
			}},
	)
	rows = append(append(append(rows, linearityRows(w)...), assembledRows(w)...), routedRows(w)...)
	return append(append(append(rows, explainRows(w)...), topologyRows(w)...), columnRows(w)...)
}

// TestConformance runs the table on several seeded worlds.
func TestConformance(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w := newWorld(t, seed)
		for _, p := range table(w) {
			p := p
			t.Run(fmt.Sprintf("seed%d/%s", seed, p.name), func(t *testing.T) {
				got, want := p.got(t), p.want(t)
				if len(got) != len(want) {
					t.Fatalf("%d vectors, reference has %d", len(got), len(want))
				}
				for i := range got {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("vector %d: %d entries, reference has %d", i, len(got[i]), len(want[i]))
					}
					for v := range got[i] {
						g, r := got[i][v], want[i][v]
						if !p.class.agrees(g, r) {
							t.Fatalf("vector %d entry %d: %v (%#x) vs reference %v (%#x), class %s",
								i, v, g, math.Float64bits(g), r, math.Float64bits(r), p.class)
						}
					}
				}
			})
		}
	}
}

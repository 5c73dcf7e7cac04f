package cache

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

func testEngine(t testing.TB, opts rank.Options) (*datagen.Dataset, *core.Engine) {
	t.Helper()
	return testEngineAt(t, opts, 0.02)
}

// testEngineAt is testEngine over the corpus at another scale.
func testEngineAt(t testing.TB, opts rank.Options, scale float64) (*datagen.Dataset, *core.Engine) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(scale)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{Rank: opts})
	if err != nil {
		t.Fatal(err)
	}
	return ds, eng
}

// perturb returns a valid rate assignment slightly different from r:
// the first non-zero rate scaled by 0.9 (outgoing sums only shrink, so
// Validate stays happy).
func perturb(t *testing.T, r *graph.Rates) *graph.Rates {
	t.Helper()
	p := r.Clone()
	v := p.Vector()
	for i, x := range v {
		if x > 0 {
			v[i] = x * 0.9
			break
		}
	}
	if err := p.SetVector(v); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSingleflightDedup is the satellite race test: 64 goroutines miss
// on the same term concurrently; exactly one power iteration must run
// and every goroutine must receive the identical vector. Run with
// -race.
func TestSingleflightDedup(t *testing.T) {
	// ZeroThreshold disables early convergence so every solve runs the
	// full 300 iterations — a wide-enough window that goroutines really
	// do pile up on the in-flight computation.
	_, eng := testEngine(t, rank.Options{Threshold: rank.ZeroThreshold, MaxIters: 300})
	c := New(eng, Options{})

	const n = 64
	pin := eng.Pin()
	rk := keyOf(pin)
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		got   [n]*termVector
	)
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			tv, _, _ := c.termVectorFor(context.Background(), pin, rk, core.ModeAuthority, "olap")
			got[i] = tv
		}(i)
	}
	start.Done()
	done.Wait()

	if computes := c.stats.computes.Load(); computes != 1 {
		t.Fatalf("kernel invocations = %d, want exactly 1", computes)
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d received a different vector object", i)
		}
	}
	if got[0] == nil || len(got[0].vec) != eng.Graph().NumNodes() {
		t.Fatalf("bad vector: %+v", got[0])
	}
	s := c.Stats()
	if s.Vector.Hits+s.Vector.Misses != n {
		t.Errorf("hits(%d)+misses(%d) != %d", s.Vector.Hits, s.Vector.Misses, n)
	}
	if s.Vector.Misses >= 2 && s.SingleflightDedup == 0 {
		t.Errorf("misses = %d but no singleflight dedup recorded", s.Vector.Misses)
	}
}

// TestInvalidationAndWarmStart is the satellite invalidation test:
// bumping the rates makes old-version entries unreachable, the next
// solve warm-starts from the vector the term's slot held, converges in
// no more iterations than a cold solve, lands within 1e-12 of the cold
// solve's scores, and replaces the old vector in its slot.
func TestInvalidationAndWarmStart(t *testing.T) {
	// A tight threshold drives both solves essentially to the fixpoint,
	// so warm and cold results must agree to ~1e-13 regardless of their
	// different starting points.
	tight := rank.Options{Threshold: 5e-14, MaxIters: 5000}
	ds, eng := testEngine(t, tight)
	c := New(eng, Options{})

	q := ir.NewQuery("olap")
	ans1 := query(c, q, 10)
	if ans1.Source != "computed" || ans1.Version != 1 {
		t.Fatalf("first answer = %+v", ans1)
	}
	oldRK := keyOf(eng.Pin())
	slot := slotKey(oldRK.gen, core.ModeAuthority, "olap")
	if e, ok := c.vectors.Get(slot); !ok || e.(*termVector).rk != oldRK.rk {
		t.Fatal("term vector not cached after first query")
	}

	newRates := perturb(t, ds.Rates)
	if _, err := eng.TrySetRates(newRates, 1); err != nil {
		t.Fatal(err)
	}

	ans2 := query(c, q, 10)
	if ans2.Version != 2 {
		t.Fatalf("version = %d, want 2", ans2.Version)
	}
	if ans2.Source == "result" || ans2.Source == "term" {
		t.Fatalf("old-version entry served after rates bump (source=%q)", ans2.Source)
	}
	if w := c.stats.warmStarts.Load(); w != 1 {
		t.Fatalf("warm starts = %d, want 1", w)
	}
	// The previous-version vector must be gone: its slot now holds the
	// new rates' vector, and nothing else is resident.
	newRK := keyOf(eng.Pin())
	if newRK == oldRK {
		t.Fatal("rates key did not change after rates bump")
	}
	e, ok := c.vectors.Get(slot)
	if !ok || e.(*termVector).rk != newRK.rk {
		t.Fatal("the term's slot does not hold the new rates' vector")
	}
	if n := c.vectors.Len(); n != 1 {
		t.Errorf("%d vectors resident after the warm start, want 1", n)
	}
	warm := e.(*termVector)
	if !warm.warmStarted || !warm.converged {
		t.Fatalf("warm vector flags = %+v", warm)
	}

	// Cold reference at the new rates: a fresh engine with no cache and
	// no warm start.
	engCold, err := core.NewEngine(ds.Graph, newRates, core.Config{Rank: tight})
	if err != nil {
		t.Fatal(err)
	}
	cold := solveOne(engCold.Pin(), core.SolveSpec{Queries: []*ir.Query{q}, Cold: true})
	if !cold.Converged {
		t.Fatal("cold reference did not converge")
	}
	if warm.iters > cold.Iterations {
		t.Errorf("warm start took %d iterations, cold %d — warm must be <= cold",
			warm.iters, cold.Iterations)
	}
	for v := range cold.Scores {
		d := warm.vec[v] - cold.Scores[v]
		if d < 0 {
			d = -d
		}
		if d > 1e-12 {
			t.Fatalf("node %d: warm %g vs cold %g differ by %g > 1e-12",
				v, warm.vec[v], cold.Scores[v], d)
		}
	}
}

// TestWarmStartAfterUnreadPublishes: a term no query read across three
// publishes still warm-starts from the vector its slot holds — solved
// under rates three versions back — in fewer sweeps than the default
// start, lands within 1e-12 of an uncached cold solve at the current
// rates, and replaces that vector: one term, one resident vector.
func TestWarmStartAfterUnreadPublishes(t *testing.T) {
	tight := rank.Options{Threshold: 5e-14, MaxIters: 5000}
	ds, eng := testEngine(t, tight)
	c := New(eng, Options{})
	q := ir.NewQuery("olap")
	query(c, q, 10)

	rates := ds.Rates
	for i := 0; i < 3; i++ {
		rates = perturb(t, rates)
		if err := eng.SetRates(rates); err != nil {
			t.Fatal(err)
		}
	}
	ans := query(c, q, 10)
	if ans.Source != SourceComputed || ans.Version != 4 {
		t.Fatalf("answer after three unread publishes: source %q, version %d", ans.Source, ans.Version)
	}
	if w := c.Stats().WarmStarts; w != 1 {
		t.Fatalf("warm starts = %d, want 1", w)
	}
	if n := c.vectors.Len(); n != 1 {
		t.Errorf("%d vectors resident for one term, want 1", n)
	}

	fresh, err := core.NewEngine(ds.Graph, rates, core.Config{Rank: tight})
	if err != nil {
		t.Fatal(err)
	}
	cold := solveOne(fresh.Pin(), core.SolveSpec{Queries: []*ir.Query{q}, Cold: true})
	// The miss path without a donation starts from the global PageRank
	// the serving engine computed under version 1's rates.
	unwarmed := solveOne(eng.Pin(), core.SolveSpec{Queries: []*ir.Query{q}})
	if ans.Iterations >= cold.Iterations || ans.Iterations >= unwarmed.Iterations {
		t.Errorf("warm solve took %d sweeps: a cold one %d, one from the global PageRank %d", ans.Iterations, cold.Iterations, unwarmed.Iterations)
	}
	tv := c.resident(keyOf(eng.Pin()), core.ModeAuthority, "olap")
	if tv == nil {
		t.Fatal("the term's slot does not hold the current rates' vector")
	}
	for v, want := range cold.Scores {
		if d := math.Abs(tv.vec[v] - want); d > 1e-12 {
			t.Fatalf("node %d: warm %g vs cold %g differ by %g > 1e-12", v, tv.vec[v], want, d)
		}
	}
}

// TestStalePinNeverReadsNewerRates: a reader pinned before a publish
// misses on the slot the newer rates filled, solves its own rates (warm
// from the newer vector) and answers under its own version; the next
// current-rates reader pays one warm re-solve, never a wrong answer.
func TestStalePinNeverReadsNewerRates(t *testing.T) {
	tight := rank.Options{Threshold: 5e-14, MaxIters: 5000}
	ds, eng := testEngine(t, tight)
	c := New(eng, Options{})
	q := ir.NewQuery("olap")
	p1 := eng.Pin()
	r2 := perturb(t, ds.Rates)
	if err := eng.SetRates(r2); err != nil {
		t.Fatal(err)
	}
	p2 := eng.Pin()
	ask := func(pin *core.Pinned, k int) *Answer {
		t.Helper()
		a, err := c.QueryModePinnedCtx(context.Background(), pin, q, k, core.ModeAuthority)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// matches checks a against an uncached cold solve at rates.
	matches := func(name string, a *Answer, pin *core.Pinned, rates *graph.Rates) {
		t.Helper()
		fresh, err := core.NewEngine(ds.Graph, rates, core.Config{Rank: tight})
		if err != nil {
			t.Fatal(err)
		}
		cold := solveOne(fresh.Pin(), core.SolveSpec{Queries: []*ir.Query{q}, Cold: true})
		for _, r := range a.Results {
			if d := math.Abs(r.Score - cold.Scores[r.Node]); d > 1e-12 {
				t.Fatalf("%s: node %d scored %g, a cold solve %g (differ by %g)", name, r.Node, r.Score, cold.Scores[r.Node], d)
			}
		}
		if a.Source != SourceComputed || a.Version != pin.Version() {
			t.Fatalf("%s: source %q, version %d, want computed at version %d", name, a.Source, a.Version, pin.Version())
		}
	}
	matches("current pin", ask(p2, 10), p2, r2)
	matches("stale pin", ask(p1, 10), p1, ds.Rates)
	// Another k, so the result LRU cannot answer it: the vector must.
	matches("current pin after the stale one", ask(eng.Pin(), 5), p2, r2)
	if w := c.Stats().WarmStarts; w != 2 {
		t.Errorf("warm starts = %d, want 2", w)
	}
}

// TestCacheHitBitCompatible: cached answers (result cache and term
// cache) must be bitwise identical to what the uncached engine
// computes at the same rates version.
func TestCacheHitBitCompatible(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})

	for _, q := range []*ir.Query{ir.NewQuery("olap"), ir.NewQuery("olap", "cube")} {
		miss := query(c, q, 10)
		hit := query(c, q, 10)
		if hit.Source != "result" {
			t.Fatalf("%v: second answer source = %q, want result", q, hit.Source)
		}
		ref := solveOne(eng.Pin(), core.SolveSpec{Queries: []*ir.Query{q}})
		top := ref.TopK(10)
		if len(top) != len(hit.Results) || len(miss.Results) != len(top) {
			t.Fatalf("%v: result lengths differ: %d vs %d", q, len(top), len(hit.Results))
		}
		for i := range top {
			if top[i].Node != hit.Results[i].Node || top[i].Score != hit.Results[i].Score {
				t.Fatalf("%v: rank %d: uncached (%d, %v) vs cached (%d, %v)",
					q, i, top[i].Node, top[i].Score, hit.Results[i].Node, hit.Results[i].Score)
			}
			if ref.InBase(top[i].Node) != hit.Results[i].InBase {
				t.Fatalf("%v: rank %d: InBase mismatch", q, i)
			}
		}
		if miss.Iterations != ref.Iterations || hit.Iterations != ref.Iterations {
			t.Errorf("%v: iterations: miss %d, hit %d, uncached %d",
				q, miss.Iterations, hit.Iterations, ref.Iterations)
		}
		eng.Release(ref)
	}
}

// TestRankPinnedMatchesEngine: the explain path's full-vector entry
// must reproduce the uncached ranking exactly, including after a cache
// hit, and releasing its result — the cache's own resident vector,
// marked Shared — must not hand that vector to the pool.
func TestRankPinnedMatchesEngine(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})

	q := ir.NewQuery("olap")
	ref := solveOne(eng.Pin(), core.SolveSpec{Queries: []*ir.Query{q}})
	for round := 0; round < 2; round++ { // miss, then hit
		res, err := c.RankPinnedCtx(context.Background(), eng.Pin(), q)
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.Scores {
			if res.Scores[v] != ref.Scores[v] {
				t.Fatalf("round %d: node %d: %g != %g", round, v, res.Scores[v], ref.Scores[v])
			}
		}
		if len(res.Base) != len(ref.Base) || !res.Shared {
			t.Fatalf("round %d: base sizes %d != %d, shared %v", round, len(res.Base), len(ref.Base), res.Shared)
		}
		eng.Release(res) // must not corrupt the cached vector
		// A pooled vector would be drawn and overwritten here.
		eng.Release(solveOne(eng.Pin(), core.SolveSpec{Queries: []*ir.Query{ir.NewQuery("xml", "mining")}}))
	}
	eng.Release(ref)
}

func TestSingleTerm(t *testing.T) {
	neg := ir.NewQuery("olap")
	neg.SetWeight("dropped", -1)
	if term, ok := singleTerm(neg); !ok || term != "olap" {
		t.Errorf("singleTerm = %q, %v", term, ok)
	}
	if _, ok := singleTerm(ir.NewQuery("olap", "cube")); ok {
		t.Error("two-term query classified as single-term")
	}
}

// TestEvictionUnderPressure: a tiny byte budget forces term-vector
// evictions while serving stays correct.
func TestEvictionUnderPressure(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	n := eng.Graph().NumNodes()
	// The vector side gets 7/8 of MaxBytes over lruShards shards: size it
	// so each shard fits one vector. More distinct terms than shards must
	// then evict, wherever their keys hash.
	c := New(eng, Options{MaxBytes: int64(8*n+512) * lruShards * 8 / 7})

	terms := eng.Index().TermsWithDF(3)
	if len(terms) > 2*lruShards {
		terms = terms[:2*lruShards]
	}
	if len(terms) <= lruShards {
		t.Skip("vocabulary too small at this scale")
	}
	for _, term := range terms {
		query(c, ir.NewQuery(term), 5)
	}
	s := c.Stats()
	if s.Vector.Evictions == 0 {
		t.Errorf("no vector evictions under a one-vector-per-shard budget: %+v", s.Vector)
	}
	if s.Vector.Bytes > s.Vector.BudgetBytes {
		t.Errorf("resident bytes %d exceed budget %d", s.Vector.Bytes, s.Vector.BudgetBytes)
	}
	// Serving an evicted term still works (recompute path).
	ans := query(c, ir.NewQuery(terms[0]), 5)
	if ans == nil || ans.Version != 1 {
		t.Fatalf("bad answer after eviction: %+v", ans)
	}
}

// TestConcurrentServeAndPublish hammers the cached serving path while
// rates are republished — the -race workout for keys, donations and
// flights together. Singles, batches and full-vector ranks ask for the
// same cold terms side by side; every answer must carry the identity of
// the pin it was asked under, and between two publishes the flighted
// callers (singles and ranks share their flights) solve no term twice.
func TestConcurrentServeAndPublish(t *testing.T) {
	ds, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})

	terms := eng.Index().TermsWithDF(3)
	if len(terms) > 4 {
		terms = terms[:4]
	}
	if len(terms) == 0 {
		t.Skip("vocabulary too small")
	}
	// A batch solves under its caller's context, a flight under a detached
	// one: marking the batch callers' context tells the two apart.
	type batchMark struct{}
	ctx := context.Background()
	bctx := context.WithValue(ctx, batchMark{}, true)
	var flighted atomic.Int64
	eng.SetSolveHook(func(st core.SolveStats) {
		if st.Ctx.Value(batchMark{}) == nil {
			flighted.Add(int64(st.Columns))
		}
	})
	defer eng.SetSolveHook(nil)

	stamped := func(what string, pin *core.Pinned, gen, version uint64) {
		if gen != pin.Generation() || version != pin.Version() {
			t.Errorf("%s under (generation %d, version %d) for a pin at (%d, %d)", what, gen, version, pin.Generation(), pin.Version())
		}
	}
	ask := func(w, i int) { // workers 0-7 ask singles, 8-9 batches, 10-11 ranks
		pin := eng.Pin()
		q := ir.NewQuery(terms[(w+i)%len(terms)])
		switch {
		case w < 8:
			a, err := c.QueryModePinnedCtx(ctx, pin, q, 5, core.ModeAuthority)
			if err != nil {
				t.Error(err)
				return
			}
			stamped("single", pin, a.Generation, a.Version)
		case w < 10:
			qs, ks := make([]*ir.Query, len(terms)), make([]int, len(terms))
			for j, term := range terms {
				qs[j], ks[j] = ir.NewQuery(term), 5
			}
			answers, err := c.QueryBatchModePinnedCtx(bctx, pin, qs, ks, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for _, a := range answers {
				stamped("batch item", pin, a.Generation, a.Version)
			}
		default:
			res, err := c.RankModePinnedCtx(ctx, pin, q, core.ModeAuthority)
			if err != nil {
				t.Error(err)
				return
			}
			stamped("rank", pin, res.Generation, res.RatesVersion)
			eng.Release(res)
		}
	}
	// serve runs the twelve workers for iters asks each, or until stop
	// closes when iters is negative.
	serve := func(iters int, stop <-chan struct{}) {
		var wg sync.WaitGroup
		for w := 0; w < 12; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; iters < 0 || i < iters; i++ {
					select {
					case <-stop:
						return
					default:
					}
					ask(w, i)
				}
			}(w)
		}
		wg.Wait()
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		serve(-1, stop)
	}()
	// Every publish carries rates no version had before: the cache keys by
	// rates value, so a republished value would rightly be answered from
	// the entries (and under the version) of its first publication.
	rates := ds.Rates
	publish := func() {
		rates = perturb(t, rates)
		if err := eng.SetRates(rates); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 6; i++ {
		publish()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	<-done

	// Between two publishes: every term is cold again, every worker asks
	// for every term, and nothing is published until they are done.
	publish()
	flighted.Store(0)
	serve(len(terms), nil)
	if n := flighted.Load(); n > int64(len(terms)) {
		t.Errorf("singles and ranks solved %d columns for %d cold terms between two publishes", n, len(terms))
	}
}

// TestRankCountsItsSolve: every power iteration the cache issues is a
// compute — the multi-keyword solve behind /v1/explain, /v1/audit and
// /v1/reformulate included, which used to go uncounted.
func TestRankCountsItsSolve(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})
	ctx := context.Background()
	pin := eng.Pin()
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		steps := []struct {
			name string
			q    *ir.Query
			want int64
		}{
			{"two-term", ir.NewQuery("olap", "cube"), 1},
			{"two-term repeat (nothing is kept)", ir.NewQuery("olap", "cube"), 1},
			{"single-term miss", ir.NewQuery("olap"), 1},
			{"single-term repeat", ir.NewQuery("olap"), 0},
		}
		for _, st := range steps {
			before := c.Stats().Computes
			res, err := c.RankModePinnedCtx(ctx, pin, st.q, m)
			if err != nil {
				t.Fatal(err)
			}
			eng.Release(res)
			if got := c.Stats().Computes - before; got != st.want {
				t.Errorf("%s %s: computes rose by %d, want %d", m, st.name, got, st.want)
			}
		}
	}
}

// The helpers below are the tests' shorthands for authority-mode calls
// under a fresh pin and a background context.

func query(c *CachedEngine, q *ir.Query, k int) *Answer {
	a, err := queryCtx(context.Background(), c, q, k)
	if err != nil {
		panic(err) // a background context cannot cancel a query
	}
	return a
}

func queryCtx(ctx context.Context, c *CachedEngine, q *ir.Query, k int) (*Answer, error) {
	return c.QueryModePinnedCtx(ctx, c.eng.Pin(), q, k, core.ModeAuthority)
}

// solveOne is one uncached solve under a background context.
func solveOne(pin *core.Pinned, spec core.SolveSpec) *core.RankResult {
	rs, err := pin.Solve(context.Background(), spec)
	if err != nil {
		panic(err)
	}
	return rs[0]
}

// termVectorFor is the flighted one-column solve every single-keyword
// miss takes — probe at k = 0, then fly — returning the termVector
// itself, so TestSingleflightDedup can compare vector identities. hit
// reports whether the vector was resident.
func (c *CachedEngine) termVectorFor(ctx context.Context, pin *core.Pinned, sk stateKey, m core.Mode, term string) (tv *termVector, hit bool, err error) {
	it := c.probe(pin, sk, ir.NewQuery(term), 0, m, true)
	if hit = it.col == nil; !hit {
		if it, err = c.fly(ctx, pin, sk, m, it); err != nil {
			return nil, false, err
		}
	}
	return it.tv, hit, nil
}

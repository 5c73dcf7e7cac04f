// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus micro and ablation benches for the design
// choices called out in DESIGN.md.
//
// Each BenchmarkTableN / BenchmarkFigureN target regenerates the
// corresponding paper result end to end (dataset generation included).
// Set AF_BENCH_SCALE to override the per-experiment default dataset
// scale (1.0 = the paper's Table 1 sizes):
//
//	AF_BENCH_SCALE=1.0 go test -bench=Figure15 -benchtime=1x
package authorityflow_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authorityflow"
	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/experiments"
	"authorityflow/internal/rank"
	"authorityflow/internal/router"
	"authorityflow/internal/server"
)

// benchScale returns the dataset scale override from AF_BENCH_SCALE
// (0 = per-experiment default).
func benchScale() float64 {
	if s := os.Getenv("AF_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

func benchCfg() experiments.Config {
	return experiments.Config{Scale: benchScale(), Out: nil}
}

func runExperiment[T any](b *testing.B, f func(experiments.Config) (T, error)) {
	b.Helper()
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One bench per paper table and figure. ----

func BenchmarkTable1DatasetStats(b *testing.B) { runExperiment(b, experiments.Table1) }

func BenchmarkTable2ObjectRank2VsObjectRank(b *testing.B) { runExperiment(b, experiments.Table2) }

func BenchmarkTable3ExplainIterations(b *testing.B) { runExperiment(b, experiments.Table3) }

func BenchmarkFigure10InternalSurvey(b *testing.B) { runExperiment(b, experiments.Figure10) }

func BenchmarkFigure11RateTraining(b *testing.B) { runExperiment(b, experiments.Figure11) }

func BenchmarkFigure12ExternalSurvey(b *testing.B) { runExperiment(b, experiments.Figure12) }

func BenchmarkFigure13ExternalTraining(b *testing.B) { runExperiment(b, experiments.Figure13) }

func BenchmarkFigure14DBLPComplete(b *testing.B) { runExperiment(b, experiments.Figure14) }

func BenchmarkFigure15DBLPTop(b *testing.B) { runExperiment(b, experiments.Figure15) }

func BenchmarkFigure16DS7(b *testing.B) { runExperiment(b, experiments.Figure16) }

func BenchmarkFigure17DS7Cancer(b *testing.B) { runExperiment(b, experiments.Figure17) }

// ---- Micro benches over a shared DBLPtop-scale engine. ----

var (
	microOnce sync.Once
	microDS   *authorityflow.Dataset
	microEng  *authorityflow.Engine
	microErr  error
)

// microWorld builds a DBLPtop-scale corpus once for all micro benches.
func microWorld(b *testing.B) (*authorityflow.Dataset, *authorityflow.Engine) {
	b.Helper()
	microOnce.Do(func() {
		scale := benchScale()
		if scale == 0 {
			scale = 0.5
		}
		cfg := datagen.DBLPTopConfig().Scale(scale)
		microDS, microErr = datagen.GenerateDBLP(cfg)
		if microErr != nil {
			return
		}
		microEng, microErr = authorityflow.NewEngine(microDS.Graph, microDS.Rates, authorityflow.Config{})
	})
	if microErr != nil {
		b.Fatal(microErr)
	}
	return microDS, microEng
}

// BenchmarkObjectRank2Query measures one cold ObjectRank2 execution
// (the "(a) computing the top-k objects" stage of Section 6.2).
func BenchmarkObjectRank2Query(b *testing.B) {
	_, eng := microWorld(b)
	q := authorityflow.NewQuery("olap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}, Cold: true})
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkObjectRank2WarmStart measures a reformulated-query execution
// warm-started from converged scores (the Section 6.2 optimization).
func BenchmarkObjectRank2WarmStart(b *testing.B) {
	_, eng := microWorld(b)
	q := authorityflow.NewQuery("olap")
	init := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}, Cold: true}).Scores
	q2 := authorityflow.NewQuery("olap", "cube")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q2}, Inits: [][]float64{init}})
	}
}

// BenchmarkAblationColdStart is the cold-start counterpart: same
// reformulated query without the warm start.
func BenchmarkAblationColdStart(b *testing.B) {
	_, eng := microWorld(b)
	q2 := authorityflow.NewQuery("olap", "cube")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q2}, Cold: true})
	}
}

// BenchmarkExplainSubgraph measures stages (b)+(c): building the
// explaining subgraph and running the flow-adjustment fixpoint at the
// paper's L=3.
func BenchmarkExplainSubgraph(b *testing.B) {
	ds, eng := microWorld(b)
	q := authorityflow.NewQuery("olap")
	res := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}})
	paperType, _ := ds.Graph.Schema().TypeByName("Paper")
	top := res.TopKOfType(ds.Graph, paperType, 1)
	if len(top) == 0 {
		b.Skip("no results at this scale")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Pin().ExplainCtx(context.Background(), res, top[0].Node, authorityflow.DefaultExplain()); err != nil {
			b.Fatal(err)
		}
	}
}

// dblptopExplain is the explain the repository's benchmark issues on
// session_feedback: dblptop at scale 1.0 (whatever AF_BENCH_SCALE
// says), the top result of "olap" as the target, the paper's L=3 — a
// subgraph of ~10^5 arcs.
func dblptopExplain(b *testing.B) (*authorityflow.Pinned, *authorityflow.RankResult, authorityflow.NodeID) {
	b.Helper()
	ds, err := datagen.GenerateDBLP(datagen.DBLPTopConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := authorityflow.NewEngine(ds.Graph, ds.Rates, authorityflow.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pin := eng.Pin()
	res := solve(b, pin, authorityflow.SolveSpec{Queries: []*authorityflow.Query{authorityflow.NewQuery("olap")}})
	return pin, res, res.TopK(1)[0].Node
}

// BenchmarkExplainDblptop measures core.explain at the benchmark's
// corpus, all three ways an explain comes by its topology. /reuse
// explains one target over and over: after one untimed explain every one
// reuses the generation's decoded topology of the subgraph and runs only
// the Equation 10 adjustment, so it allocates the Subgraph and its
// per-node float arrays and nothing per arc. /unpack explains the same
// target with the decoded tier evicted before each (untimed), so every
// explain decodes the packed tier's copy and then adjusts: it allocates
// the decoded topology, O(|subgraph|), beside what /reuse does. /build
// rotates over the next 200 results of each of five queries, whose
// subgraphs are many times what either tier holds, so every explain
// builds: its allocations are O(|subgraph|) — Nodes, the per-node arrays,
// Arcs at 8 bytes per arc and the packed copy — and independent of |V|.
// In all three the scratch, including the Equation 10 loop's dense
// per-arc arrays, is pooled per corpus generation.
func BenchmarkExplainDblptop(b *testing.B) {
	pin, res, target := dblptopExplain(b)
	type explain struct {
		res    *authorityflow.RankResult
		target authorityflow.NodeID
	}
	// next carries the rotation over the benchmark's rounds, so a round
	// never starts on a target the last one left in a tier.
	next := 0
	run := func(b *testing.B, explains []explain, before func(), path string) {
		b.ReportAllocs()
		b.ResetTimer()
		arcs := 0
		for i := 0; i < b.N; i++ {
			x := explains[next%len(explains)]
			next++
			if before != nil {
				b.StopTimer()
				before()
				b.StartTimer()
			}
			sg, err := pin.ExplainCtx(context.Background(), x.res, x.target, authorityflow.DefaultExplain())
			if err != nil {
				b.Fatal(err)
			}
			if sg.TopologyPath() != path {
				b.Fatalf("explain of %d: topology %s, want %s", x.target, sg.TopologyPath(), path)
			}
			arcs += len(sg.Arcs)
		}
		b.ReportMetric(float64(arcs)/float64(b.N), "arcs/op")
	}
	one := []explain{{res, target}}
	b.Run("reuse", func(b *testing.B) {
		if _, err := pin.ExplainCtx(context.Background(), res, target, authorityflow.DefaultExplain()); err != nil {
			b.Fatal(err)
		}
		run(b, one, nil, "reused")
	})
	b.Run("unpack", func(b *testing.B) {
		if _, err := pin.ExplainCtx(context.Background(), res, target, authorityflow.DefaultExplain()); err != nil {
			b.Fatal(err)
		}
		run(b, one, pin.EvictDecodedTopologies, "unpacked")
	})
	b.Run("build", func(b *testing.B) {
		var explains []explain
		for _, q := range []string{"olap", "mining", "xml", "web", "query"} {
			r := res
			if q != "olap" {
				r = solve(b, pin, authorityflow.SolveSpec{Queries: []*authorityflow.Query{authorityflow.NewQuery(q)}})
			}
			for _, top := range r.TopK(201) {
				if top.Node != target {
					explains = append(explains, explain{r, top.Node})
				}
			}
		}
		run(b, explains, nil, "built")
	})
}

// BenchmarkAuditDblptop measures core.audit — the same explain plus the
// bounded top-budget selection — at the zero options: the paper's
// radius and the default budget.
func BenchmarkAuditDblptop(b *testing.B) {
	pin, res, target := dblptopExplain(b)
	opts := core.AuditOptions{}
	b.ReportAllocs()
	b.ResetTimer()
	arcs := 0
	for i := 0; i < b.N; i++ {
		a, err := pin.AuditCtx(context.Background(), core.ModeAuthority, res, target, opts)
		if err != nil {
			b.Fatal(err)
		}
		arcs = a.TotalArcs
	}
	b.ReportMetric(float64(arcs), "arcs/op")
}

// BenchmarkSelectDblptop measures the two top-budget selections over
// that explain's subgraph at the default budget: AuditOf, the
// sensitivity ranking behind /v1/audit and /v1/explain's contributions,
// and TopArcs, the flow ranking behind /v1/explain's arcs.
func BenchmarkSelectDblptop(b *testing.B) {
	pin, res, target := dblptopExplain(b)
	sg, err := pin.ExplainCtx(context.Background(), res, target, authorityflow.DefaultExplain())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("AuditOf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.AuditOf(sg, core.DefaultAuditBudget)
		}
	})
	b.Run("TopArcs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sg.TopArcs(core.DefaultAuditBudget)
		}
	})
}

// BenchmarkSolveColumns measures one uncached Pinned.Solve of B queries
// at the benchmark's corpus (dblptop scale 1.0, authority, the serial
// kernel afqserver defaults to): ms per column and sweeps per solve. It
// regenerates the table in DESIGN.md §8 — B = 1 is the arc-struct body,
// B ≥ 2 the coefficient plan, built by the first solve and reused by the
// timed ones.
func BenchmarkSolveColumns(b *testing.B) {
	ds, err := datagen.GenerateDBLP(datagen.DBLPTopConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := authorityflow.NewEngine(ds.Graph, ds.Rates, authorityflow.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pin := eng.Pin()
	terms := []string{"olap", "xml", "mining", "search", "index", "query", "optimization", "cube"}
	for _, B := range []int{1, 2, 8} {
		qs := make([]*authorityflow.Query, B)
		for j := range qs {
			qs[j] = authorityflow.NewQuery(terms[j])
		}
		b.Run("B="+strconv.Itoa(B), func(b *testing.B) {
			sweeps := 0
			for i := -1; i < b.N; i++ { // pass -1 warms the pool, the global start and the plan
				if i == 0 {
					b.ResetTimer()
				}
				rs, err := pin.Solve(context.Background(), authorityflow.SolveSpec{Queries: qs})
				if err != nil {
					b.Fatal(err)
				}
				sweeps = 0
				for _, r := range rs {
					if len(r.Base) == 0 {
						b.Fatalf("%q matches nothing", r.Query)
					}
					sweeps += r.Iterations
					eng.Release(r)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*B), "ms/column")
			b.ReportMetric(float64(sweeps), "sweeps")
		})
	}
}

// BenchmarkAblationExplainRadius sweeps the radius L (the paper fixes
// L=3; the subgraph and its cost grow quickly with L).
func BenchmarkAblationExplainRadius(b *testing.B) {
	ds, eng := microWorld(b)
	q := authorityflow.NewQuery("olap")
	res := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}})
	paperType, _ := ds.Graph.Schema().TypeByName("Paper")
	top := res.TopKOfType(ds.Graph, paperType, 1)
	if len(top) == 0 {
		b.Skip("no results at this scale")
	}
	for _, radius := range []int{1, 2, 3, 4, 5} {
		b.Run("L="+strconv.Itoa(radius), func(b *testing.B) {
			opts := core.ExplainOptions{Radius: radius}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Pin().ExplainCtx(context.Background(), res, top[0].Node, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReformulate measures stage (d): generating the reformulated
// query from an explaining subgraph (content + structure).
func BenchmarkReformulate(b *testing.B) {
	ds, eng := microWorld(b)
	q := authorityflow.NewQuery("olap")
	res := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}})
	paperType, _ := ds.Graph.Schema().TypeByName("Paper")
	top := res.TopKOfType(ds.Graph, paperType, 1)
	if len(top) == 0 {
		b.Skip("no results at this scale")
	}
	sg, err := eng.Pin().ExplainCtx(context.Background(), res, top[0].Node, authorityflow.DefaultExplain())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Pin().ReformulateWeightedCtx(context.Background(), q, []*authorityflow.Subgraph{sg}, nil, authorityflow.ContentAndStructure()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaseSet measures the IR stage: BM25 base-set computation
// with normalization.
func BenchmarkBaseSet(b *testing.B) {
	_, eng := microWorld(b)
	q := authorityflow.NewQuery("olap", "cube", "aggregation")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.BaseSet(q)
	}
}

// BenchmarkGraphBuild measures CSR freeze throughput (datagen included
// so the figure reflects end-to-end corpus construction).
func BenchmarkGraphBuild(b *testing.B) {
	scale := benchScale()
	if scale == 0 {
		scale = 0.25
	}
	cfg := datagen.DBLPTopConfig().Scale(scale)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := datagen.GenerateDBLP(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionActiveFeedback regenerates the future-work
// experiment: active vs passive feedback-object selection.
func BenchmarkExtensionActiveFeedback(b *testing.B) {
	runExperiment(b, experiments.ExtensionActiveFeedback)
}

// ---- Serving-cache query-path benches. ----
//
// The three QueryPath benches compare the latency ladder of one
// repeated query on the DBLP-scale corpus: a cold solve, a Section 6.2
// warm-started solve, and a serving-cache hit (internal/cache).

var (
	qpOnce sync.Once
	qpCE   *cache.CachedEngine
)

func queryPathWorld(b *testing.B) (*authorityflow.Engine, *cache.CachedEngine) {
	_, eng := microWorld(b)
	qpOnce.Do(func() {
		qpCE = cache.New(eng, cache.Options{})
	})
	return eng, qpCE
}

// BenchmarkQueryPathCold is the baseline: full power iteration from the
// base distribution plus top-k selection.
func BenchmarkQueryPathCold(b *testing.B) {
	eng, _ := queryPathWorld(b)
	q := authorityflow.NewQuery("olap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}, Cold: true})
		if got := res.TopK(10); len(got) == 0 {
			b.Fatal("empty result")
		}
		eng.Release(res)
	}
}

// BenchmarkQueryPathWarmStart runs the same query warm-started from its
// own converged scores — the per-solve floor of the paper's §6.2 reuse.
func BenchmarkQueryPathWarmStart(b *testing.B) {
	eng, _ := queryPathWorld(b)
	q := authorityflow.NewQuery("olap")
	init := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}, Cold: true}).Scores
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}, Inits: [][]float64{init}})
		if got := res.TopK(10); len(got) == 0 {
			b.Fatal("empty result")
		}
		eng.Release(res)
	}
}

// BenchmarkQueryPathCacheHit serves the repeated query from the
// internal/cache result cache — the steady-state latency of a popular
// query. The acceptance bar is >= 10x faster than QueryPathCold.
func BenchmarkQueryPathCacheHit(b *testing.B) {
	_, ce := queryPathWorld(b)
	q := authorityflow.NewQuery("olap")
	query := func() *cache.Answer {
		ans, err := ce.QueryModePinnedCtx(context.Background(), ce.Engine().Pin(), q, 10, "")
		if err != nil {
			b.Fatal(err)
		}
		return ans
	}
	if ans := query(); len(ans.Results) == 0 {
		b.Fatal("empty primed result")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ans := query(); len(ans.Results) == 0 {
			b.Fatal("empty result")
		}
	}
	b.StopTimer()
	if st := ce.Stats(); st.Result.Hits == 0 {
		b.Fatal("benchmark did not exercise the result-cache hit path")
	}
}

// BenchmarkQueryAfterPublishes is the interactive loop's first read of a
// term after rates it was not read under: each op queries olap, publishes
// four perturbed rate vectors nobody reads, then queries olap again. The
// second query is the serving cache's miss path, warm-started from the
// vector the term's slot holds. sweeps/op counts the kernel's sweeps. The
// engine is a private one over queryPathWorld's corpus, so its publishes
// leave the shared engine's rates alone.
func BenchmarkQueryAfterPublishes(b *testing.B) {
	shared, _ := queryPathWorld(b)
	eng, err := authorityflow.NewEngineWith(shared.Corpus(), shared.Rates())
	if err != nil {
		b.Fatal(err)
	}
	ce := cache.New(eng, cache.Options{})
	var sweeps atomic.Int64
	eng.SetSolveHook(func(st core.SolveStats) { sweeps.Add(int64(st.Iterations)) })
	q := authorityflow.NewQuery("olap")
	query := func() *cache.Answer {
		ans, err := ce.QueryModePinnedCtx(context.Background(), eng.Pin(), q, 10, core.ModeAuthority)
		if err != nil {
			b.Fatal(err)
		}
		return ans
	}
	// Publish n scales the first rate by 0.95 … 0.75 in turn, less a
	// jitter that keeps every vector (and so every cache key) distinct.
	base := eng.Rates().Vector()
	publish := func(n int) {
		v := append([]float64(nil), base...)
		for j, x := range v {
			if x > 0 {
				v[j] = x * (1 - 0.05*float64(1+n%5) - 1e-9*float64(n))
				break
			}
		}
		r := eng.Rates()
		if err := r.SetVector(v); err != nil {
			b.Fatal(err)
		}
		if err := eng.SetRates(r); err != nil {
			b.Fatal(err)
		}
	}
	query() // op 0's first query is then a result hit, like every later op's
	sweeps.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
		for j := 0; j < 4; j++ {
			publish(4*i + j)
		}
		if ans := query(); ans.Source != cache.SourceComputed {
			b.Fatalf("query after the publishes answered from %q", ans.Source)
		}
	}
	b.ReportMetric(float64(sweeps.Load())/float64(b.N), "sweeps/op")
}

// benchQueryHit drives GET /v1/query?q=olap&k=10 at h until the answer is
// a warmed result hit (miss, first hit, repeat), then times the repeat —
// the commonest request of the interactive loop, through every layer a
// real one crosses: middleware, admission guard, parse, result LRU, body.
func benchQueryHit(b *testing.B, h http.Handler) {
	req := httptest.NewRequest(http.MethodGet, "/v1/query?q=olap&k=10", nil)
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	for i := 0; i < 3; i++ {
		serve()
	}
	if body := serve().Body.String(); !strings.Contains(body, `"cache":"result"`) {
		b.Fatalf("warmed answer is not a result hit: %s", body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkQueryHit is a warmed result hit on one replica's handler.
func BenchmarkQueryHit(b *testing.B) {
	ds, _ := microWorld(b)
	srv, err := server.New(ds, authorityflow.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchQueryHit(b, srv.Handler())
}

// BenchmarkQueryHitRouted is the same hit asked of a router in front of
// one replica over loopback HTTP: the hop, the forward and what the
// router learns from the answer ride on top of BenchmarkQueryHit.
func BenchmarkQueryHitRouted(b *testing.B) {
	ds, _ := microWorld(b)
	srv, err := server.New(ds, authorityflow.Config{})
	if err != nil {
		b.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	defer replica.Close()
	rt, err := router.New([]string{replica.URL}, router.Options{HealthInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rt.CheckNow(context.Background())
	benchQueryHit(b, rt.Handler())
}

// BenchmarkQueryPathInstrumented is BenchmarkQueryPathCold with a live
// per-iteration observer attached (the serving stack's /metrics
// configuration: every iteration increments a counter). Comparing its
// ns/op and allocs/op against QueryPathCold bounds the observability
// overhead on the hot path; the disabled-observer zero-alloc contract
// itself is enforced by TestIterateDisabledObserverZeroAlloc in
// internal/rank.
func BenchmarkQueryPathInstrumented(b *testing.B) {
	ds, _ := microWorld(b)
	var iterations atomic.Uint64
	eng, err := authorityflow.NewEngine(ds.Graph, ds.Rates, authorityflow.Config{
		Rank: rank.Options{
			Observe: func(iter int, residual float64) { iterations.Add(1) },
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	q := authorityflow.NewQuery("olap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solve(b, eng.Pin(), authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}, Cold: true})
		if got := res.TopK(10); len(got) == 0 {
			b.Fatal("empty result")
		}
		eng.Release(res)
	}
	b.StopTimer()
	if iterations.Load() == 0 {
		b.Fatal("observer never fired during instrumented solves")
	}
}

// BenchmarkQueryPathWithDeadline is BenchmarkQueryPathCold run through
// the context-threaded entry point under a live (never-firing)
// deadline — the PR-4 serving configuration, where every request
// carries a -query-timeout context the kernel polls once per sweep.
// Comparing its ns/op and allocs/op against QueryPathCold bounds the
// cancellation machinery's hot-path cost; the disabled-ctx zero-alloc
// contract itself is enforced by TestIterateContextZeroAlloc in
// internal/rank.
func BenchmarkQueryPathWithDeadline(b *testing.B) {
	eng, _ := queryPathWorld(b)
	q := authorityflow.NewQuery("olap")
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := eng.Pin().Solve(ctx, authorityflow.SolveSpec{Queries: []*authorityflow.Query{q}, Cold: true})
		if err != nil {
			b.Fatal(err)
		}
		res := rs[0]
		if got := res.TopK(10); len(got) == 0 {
			b.Fatal("empty result")
		}
		eng.Release(res)
	}
}

// BenchmarkExtensionBaselines regenerates the three-way baseline
// comparison (ObjectRank2 vs ObjectRank vs HITS).
func BenchmarkExtensionBaselines(b *testing.B) {
	runExperiment(b, experiments.ExtensionBaselines)
}

// BenchmarkExtensionScalability regenerates the feasibility sweep.
func BenchmarkExtensionScalability(b *testing.B) {
	runExperiment(b, experiments.ExtensionScalability)
}

// BenchmarkExtensionImplicitFeedback regenerates the explicit-vs-
// click-through feedback comparison.
func BenchmarkExtensionImplicitFeedback(b *testing.B) {
	runExperiment(b, experiments.ExtensionImplicitFeedback)
}

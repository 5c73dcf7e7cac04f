// Package server implements the HTTP JSON API of the deployed
// ObjectRank2 demo (the paper's web system at
// dbir.cis.fiu.edu/ObjectRankReformulation): querying, result
// explanation, and feedback-driven reformulation with per-process
// trained rates.
//
// Endpoints (canonical, versioned — see api.go for the full surface,
// DTOs, error envelope and the deprecation policy of the unversioned
// aliases):
//
//	GET  /v1/query?q=olap&k=10
//	POST /v1/query/batch
//	GET  /v1/explain?q=olap&target=123
//	GET  /v1/reformulate?q=olap&feedback=123,456&mode=structure|content|both[&version=N]
//	GET  /v1/rates
//	GET  /v1/healthz
//	GET  /v1/stats
//
// Concurrency: the server holds no locks. Every handler loads the
// engine's current rates snapshot once (Engine.Pin) and serves every
// step of the request from that pinned view; concurrent reformulations
// publish through the engine's compare-and-swap. /reformulate is
// optimistic: the response carries the rates version it ran under, an
// optional version=N parameter asserts the client's expected version,
// and a lost race returns 409 Conflict with the winning version so the
// client can re-read and retry.
//
// With WithCache, the query paths run through the internal/cache
// serving cache: repeated queries hit a version-keyed result cache,
// single-keyword queries share converged term vectors, concurrent
// identical misses collapse onto one solve, and /stats exposes the
// hit/miss/eviction/singleflight/bytes counters.
package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/obs"
	"authorityflow/internal/profile"
	"authorityflow/internal/rank"
	"authorityflow/internal/storage"
)

// Server serves one dataset through one engine. Reformulation state
// (the trained authority transfer rates) is process-wide, published as
// atomically versioned snapshots by the engine; handlers are lock-free
// and safe under unbounded concurrency.
type Server struct {
	// ds is the dataset of the CURRENTLY served corpus generation,
	// republished atomically by /v1/corpus/swap. Handlers that render
	// nodes never read it — they use the graph of the engine state they
	// pinned — so a swap mid-request cannot mismatch IDs and text.
	ds          atomic.Pointer[datagen.Dataset]
	eng         *core.Engine
	cfg         core.Config         // post-chaining config, reused to build swapped-in corpora
	swapDir     string              // "" = /v1/corpus/swap disabled
	cache       *cache.CachedEngine // nil when serving uncached
	profiles    *profile.Manager    // nil when personalization is disabled
	legacyGrace bool                // true = legacy aliases still serve (pre-sunset behaviour)
	obs         *serverObs          // always non-nil; see ObsOptions
	adm         *admission          // always non-nil; zero options = no limits
}

// Option configures optional Server behaviour.
type Option func(*serverOptions)

type serverOptions struct {
	cacheOpts      cache.Options
	cacheEnabled   bool
	profileOpts    profile.Options
	profileEnabled bool
	legacyGrace    bool
	obs            ObsOptions
	admission      AdmissionOptions
	swapDir        string
}

// WithCache enables the serving cache with the given total byte budget
// (0 = cache.DefaultMaxBytes) and number of hot terms to prewarm after
// each rates publication (0 = no prewarming).
func WithCache(maxBytes int64, prewarmTerms int) Option {
	return func(o *serverOptions) {
		o.cacheEnabled = true
		o.cacheOpts.MaxBytes = maxBytes
		o.cacheOpts.PrewarmTerms = prewarmTerms
	}
}

// WithCacheOptions enables the serving cache with full cache.Options.
func WithCacheOptions(co cache.Options) Option {
	return func(o *serverOptions) {
		o.cacheEnabled = true
		o.cacheOpts = co
	}
}

// New builds a Server over a dataset. Without options the server runs
// uncached, exactly as before; pass WithCache to enable the serving
// cache.
func New(ds *datagen.Dataset, cfg core.Config, opts ...Option) (*Server, error) {
	return newServer(ds, nil, cfg, opts)
}

// NewWithIndex builds a Server over a dataset whose inverted index was
// loaded alongside it (the binary-snapshot cold-start path): the
// BuildIndex pass is skipped entirely and the given index is served
// as-is. ix must cover exactly ds.Graph's nodes.
func NewWithIndex(ds *datagen.Dataset, ix *ir.Index, cfg core.Config, opts ...Option) (*Server, error) {
	if ix == nil {
		return nil, errors.New("server: NewWithIndex requires an index")
	}
	return newServer(ds, ix, cfg, opts)
}

func newServer(ds *datagen.Dataset, ix *ir.Index, cfg core.Config, opts []Option) (*Server, error) {
	var so serverOptions
	for _, o := range opts {
		o(&so)
	}
	sobs := newServerObs(so.obs)
	// Thread the per-iteration kernel observer through the engine's
	// rank options (chaining any observer the caller already set), so
	// afq_kernel_iterations_total counts every iteration of every
	// solve. The nil path inside the kernel stays allocation-free; this
	// closure is one atomic add per iteration.
	cfg.Rank.Observe = chainIterObserver(cfg.Rank.Observe, sobs.observeIteration)
	var eng *core.Engine
	var err error
	if ix != nil {
		var corpus *core.Corpus
		corpus, err = core.NewCorpusWithIndex(ds.Graph, ix, cfg)
		if err == nil {
			eng, err = core.NewEngineWith(corpus, ds.Rates)
		}
	} else {
		eng, err = core.NewEngine(ds.Graph, ds.Rates, cfg)
	}
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, cfg: cfg, swapDir: so.swapDir, legacyGrace: so.legacyGrace,
		obs: sobs, adm: newAdmission(so.admission)}
	s.ds.Store(ds)
	if so.cacheEnabled {
		s.cache = cache.New(eng, so.cacheOpts)
	}
	if so.profileEnabled {
		po := so.profileOpts
		if po.BaseRank == nil && s.cache != nil {
			// Personalized queries share the global tier's serving cache:
			// the (1−β)·r(Q) component comes from the same term vectors,
			// result collapse and solve singleflight as /v1/query.
			po.BaseRank = func(ctx context.Context, pin *core.Pinned, q *ir.Query) (*core.RankResult, error) {
				return s.cache.RankPinnedCtx(ctx, pin, q)
			}
		}
		pm, err := profile.NewManager(eng, po)
		if err != nil {
			return nil, err
		}
		s.profiles = pm
	}
	sobs.attach(s)
	return s, nil
}

// chainIterObserver composes two per-iteration observers (either may
// be nil).
func chainIterObserver(a, b rank.IterObserver) rank.IterObserver {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(iter int, residual float64) {
		a(iter, residual)
		b(iter, residual)
	}
}

// Close releases background resources (the cache's prewarmer, if any).
func (s *Server) Close() {
	if s.cache != nil {
		s.cache.Close()
	}
}

// Handler returns the routed HTTP handler. Every route runs inside
// the observability middleware (request ID + X-Request-ID header,
// per-handler request/latency metrics, access and slow-query logs);
// /metrics serves the Prometheus exposition, and /debug/pprof/ is
// mounted when ObsOptions.Pprof is set.
//
// Routing is two-surfaced (see api.go): the canonical /v1 routes run
// with the v1 error envelope, and the historical unversioned paths are
// mounted as deprecated aliases of the SAME handlers — byte-identical
// success bodies, legacy error shape, plus Deprecation/Sunset/Link
// headers. Expensive endpoints (each may run a kernel solve) go
// through the admission guard on both surfaces: bounded in-flight
// slots, queue-wait shedding, and the per-request deadline. Operator
// endpoints never do — an overloaded replica must stay inspectable.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	v1 := func(path string, h http.HandlerFunc) {
		mux.Handle(path, s.obs.mw.Wrap(path, v1Routed(h)))
	}
	// The v1 marker wraps OUTSIDE the guard, so shed/deadline/
	// bad-header errors raised by the guard itself carry the envelope.
	v1Guarded := func(path string, h http.HandlerFunc) {
		mux.Handle(path, s.obs.mw.Wrap(path, v1Routed(s.guard(h))))
	}
	v1Guarded("/v1/query", s.handleQuery)
	v1Guarded("/v1/query/batch", s.handleQueryBatch)
	v1Guarded("/v1/explain", s.handleExplain)
	v1Guarded("/v1/audit", s.handleAudit)
	v1Guarded("/v1/reformulate", s.handleReformulate)
	v1("/v1/rates", s.handleRatesDispatch)
	v1("/v1/healthz", s.handleHealth)
	v1("/v1/stats", s.handleStats)
	// Profile CRUD is v1-only and unguarded (byte-sized record I/O, no
	// kernel work — like /v1/rates); the personalized query and
	// training paths run through the guarded /v1/query and
	// /v1/reformulate routes above.
	v1("/v1/profile/", s.handleProfile)
	// Operator endpoint, v1-only (no legacy alias) and outside the
	// admission guard: swapping must work on an overloaded replica.
	v1("/v1/corpus/swap", s.handleCorpusSwap)

	alias := func(path, successor string, h http.HandlerFunc) {
		mux.Handle(path, s.obs.mw.Wrap(path, deprecatedAlias(successor, s.legacyGrace, h)))
	}
	aliasGuarded := func(path, successor string, h http.HandlerFunc) {
		mux.Handle(path, s.obs.mw.Wrap(path, deprecatedAlias(successor, s.legacyGrace, s.guard(h))))
	}
	aliasGuarded("/query", "/v1/query", s.handleQuery)
	aliasGuarded("/explain", "/v1/explain", s.handleExplain)
	aliasGuarded("/reformulate", "/v1/reformulate", s.handleReformulate)
	alias("/rates", "/v1/rates", s.handleRates)
	alias("/healthz", "/v1/healthz", s.handleHealth)
	alias("/stats", "/v1/stats", s.handleStats)

	// /metrics stays unversioned by Prometheus convention.
	mux.Handle("/metrics", s.obs.mw.Wrap("/metrics", s.obs.reg.Handler()))
	if s.obs.pprof {
		mountPprof(mux)
	}
	return mux
}

// Metrics exposes the server's metric registry (for embedding callers
// that co-host exposition or assert on metrics in tests).
func (s *Server) Metrics() *obs.Registry { return s.obs.reg }

// The request/response DTOs of every endpoint live in api.go, the
// single definition point of the public surface.

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	ds := s.ds.Load()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Name:          ds.Name,
		Nodes:         ds.Graph.NumNodes(),
		Edges:         ds.Graph.NumEdges(),
		RatesVersion:  s.eng.RatesVersion(),
		Generation:    s.eng.Generation(),
		CacheEnabled:  s.cache != nil,
		UptimeSeconds: s.obs.uptimeSeconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	byHandler := make(map[string]int64)
	s.obs.mw.Requests().Each(func(labels []string, n uint64) {
		byHandler[labels[0]+" "+labels[1]] = int64(n)
	})
	resp := StatsResponse{
		CacheEnabled:  s.cache != nil,
		RatesVersion:  s.eng.RatesVersion(),
		Generation:    s.eng.Generation(),
		CorpusSwaps:   int64(s.obs.swapsTotal.Count()),
		UptimeSeconds: s.obs.uptimeSeconds(),
		HTTP: HTTPStats{
			RequestsTotal: int64(s.obs.mw.Requests().Total()),
			ByHandler:     byHandler,
			SlowRequests:  int64(s.obs.mw.SlowCount()),
		},
		Kernel: KernelStats{
			Solves:          int64(s.obs.solves.Count()),
			WarmSolves:      int64(s.obs.warmSolves.Count()),
			IterationsTotal: int64(s.obs.iterTotal.Count()),
		},
	}
	if s.cache != nil {
		snap := s.cache.Stats()
		resp.Cache = &snap
	}
	if s.profiles != nil {
		snap := s.profiles.Stats()
		resp.Profile = &snap
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRates(w http.ResponseWriter, r *http.Request) {
	pin := s.eng.Pin()
	rates := pin.Rates()
	// RatesResponse's field order matches the alphabetical key order the
	// pre-v1 map[string]any rendering produced, so the alias body stayed
	// byte-identical across the DTO consolidation.
	writeJSON(w, http.StatusOK, RatesResponse{
		Rates:   rates.String(),
		Vector:  rates.Vector(),
		Version: pin.Version(),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, k, ok := parseQuery(w, r)
	if !ok {
		return
	}
	rp, ok := parseReadParams(w, r)
	if !ok {
		return
	}
	// Pin ONE engine state for the whole request: the solve, the cache
	// lookups and the node rendering below all see the same corpus
	// generation even if a swap lands mid-request.
	ctx := r.Context()
	pin := s.eng.Pin()
	g := pin.Corpus().Graph()
	tr := obs.TraceFrom(ctx)
	tr.Eventf("parse", "q=%s k=%d mode=%s", q.String(), k, rp.Mode)
	if pid := r.URL.Query().Get("profile"); pid != "" {
		// Profiles personalize the authority flow system; the hub and
		// combined axes have no basis-projected store behind them.
		if rp.Mode != core.ModeAuthority {
			writeError(w, r, http.StatusBadRequest,
				"profile-scoped queries support only mode=authority")
			return
		}
		s.handleProfileQuery(w, r, pin, pid, q, k)
		return
	}
	if s.cache != nil {
		ans, err := s.cache.QueryModePinnedCtx(ctx, pin, q, k, rp.Mode)
		if err != nil {
			s.writeCtxError(w, r, err)
			return
		}
		tr.Eventf("solve", "source=%s iters=%d base=%d version=%d generation=%d",
			ans.Source, ans.Iterations, ans.BaseSet, ans.Version, ans.Generation)
		s.obs.cacheOutcome.With(ans.Source).Inc()
		resp := QueryResponse{
			Query:      q.String(),
			Mode:       modeField(rp.Mode),
			BaseSet:    ans.BaseSet,
			Iterations: ans.Iterations,
			Version:    ans.Version,
			Generation: ans.Generation,
			Cache:      ans.Source,
			Results:    s.renderItems(g, q, ans.Results),
		}
		tr.Eventf("render", "results=%d", len(resp.Results))
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res, err := solveOne(ctx, pin, core.SolveSpec{Queries: []*ir.Query{q}, Mode: rp.Mode})
	if err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	tr.Eventf("baseSet", "size=%d dur=%s", len(res.Base), res.BaseSetDur)
	tr.Eventf("solve", "iters=%d converged=%t dur=%s", res.Iterations, res.Converged, res.SolveDur)
	s.obs.cacheOutcome.With(uncachedOutcome).Inc()
	resp := QueryResponse{
		Query:      q.String(),
		Mode:       modeField(rp.Mode),
		BaseSet:    len(res.Base),
		Iterations: res.Iterations,
		Version:    res.RatesVersion,
		Generation: res.Generation,
		Results:    s.results(g, res, k),
	}
	s.eng.Release(res)
	tr.Eventf("render", "results=%d", len(resp.Results))
	writeJSON(w, http.StatusOK, resp)
}

// modeField renders a Mode for a response DTO: authority — the pre-mode
// meaning of every endpoint — stays the omitted zero value, keeping
// authority response bodies byte-identical to their pre-contract form.
func modeField(m core.Mode) string {
	if m == core.ModeAuthority {
		return ""
	}
	return string(m)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, _, ok := parseQuery(w, r)
	if !ok {
		return
	}
	rp, ok := parseReadParams(w, r)
	if !ok {
		return
	}
	if !requireExplainable(w, r, rp.Mode) {
		return
	}
	// Pin one snapshot so the ranking and its explanation cannot see
	// different rates even if a reformulation lands in between, and so
	// the target ID is validated against the SAME generation's graph
	// the solve will run on. With the cache on, single-keyword rankings
	// come straight from the shared term vectors (copied out, since
	// Release returns scores to the pool).
	ctx := r.Context()
	pin := s.eng.Pin()
	g := pin.Corpus().Graph()
	target, ok := s.parseNodeID(w, r, g, r.URL.Query().Get("target"), "target")
	if !ok {
		return
	}
	tr := obs.TraceFrom(ctx)
	tr.Eventf("parse", "q=%s target=%d mode=%s", q.String(), target, rp.Mode)
	var res *core.RankResult
	var err error
	if s.cache != nil {
		res, err = s.cache.RankModePinnedCtx(ctx, pin, q, rp.Mode)
	} else {
		res, err = solveOne(ctx, pin, core.SolveSpec{Queries: []*ir.Query{q}, Mode: rp.Mode})
	}
	if err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	tr.Eventf("solve", "iters=%d base=%d", res.Iterations, len(res.Base))
	sg, err := pin.ExplainModeCtx(ctx, rp.Mode, res, target, core.DefaultExplain())
	tr.Event("explain", "")
	s.eng.Release(res)
	if err != nil {
		if ctx.Err() != nil {
			s.writeCtxError(w, r, err)
			return
		}
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	switch r.URL.Query().Get("format") {
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = storage.ExportHTML(w, g, sg)
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		_ = storage.ExportDOT(w, g, sg)
	default:
		// The JSON format carries the shared explain/audit envelope: every
		// legacy SubgraphJSON field, embedded unchanged, plus the envelope
		// additions (node, score, mode, generation, ratesVersion,
		// contributions[]) — see api.go's ExplainResponse. The budget
		// parameter truncates ONLY the contributions block; the legacy
		// nodes/arcs arrays stay complete.
		a := core.AuditOf(sg, rp.Budget)
		resp := ExplainResponse{
			SubgraphJSON:  storage.BuildSubgraphJSON(g, sg),
			Node:          int64(sg.Target),
			Score:         sg.ExplainedScore(),
			Mode:          string(rp.Mode),
			Generation:    pin.Generation(),
			RatesVersion:  pin.Version(),
			Contributions: contributions(g, a),
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleReformulate(w http.ResponseWriter, r *http.Request) {
	q, k, ok := parseQuery(w, r)
	if !ok {
		return
	}
	var opts core.ReformulateOptions
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "structure":
		opts = core.StructureOnly()
	case "content":
		opts = core.ContentOnly()
	case "both":
		opts = core.ContentAndStructure()
	default:
		writeError(w, r, http.StatusBadRequest, "unknown mode "+mode)
		return
	}
	// The whole flow — rank, explain each feedback object, reformulate,
	// publish — runs against ONE pinned snapshot; no lock is held, so
	// concurrent queries proceed at full speed. Feedback IDs are
	// validated against the pinned generation's graph. Publication is
	// optimistic: TrySetRates succeeds only if the pinned version is
	// still current, otherwise the client gets 409 plus the winning
	// version and retries (a corpus swap also bumps the rates version,
	// so feedback gathered on a swapped-out generation conflicts too).
	ctx := r.Context()
	pin := s.eng.Pin()
	g := pin.Corpus().Graph()
	var ids []graph.NodeID
	for _, part := range strings.Split(r.URL.Query().Get("feedback"), ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, ok := s.parseNodeID(w, r, g, part, "feedback id")
		if !ok {
			return
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		writeError(w, r, http.StatusBadRequest, "feedback ids required")
		return
	}
	confidences, ok := parseConfidences(w, r, len(ids))
	if !ok {
		return
	}

	tr := obs.TraceFrom(ctx)
	tr.Eventf("parse", "q=%s feedback=%d", q.String(), len(ids))
	if vs := r.URL.Query().Get("version"); vs != "" {
		v, err := strconv.ParseUint(vs, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "bad version token "+vs)
			return
		}
		if v != pin.Version() {
			writeConflict(w, r, "rates were changed since version "+vs, pin.Version())
			return
		}
	}
	var res *core.RankResult
	var err error
	if s.cache != nil {
		res, err = s.cache.RankPinnedCtx(ctx, pin, q)
	} else {
		res, err = solveOne(ctx, pin, core.SolveSpec{Queries: []*ir.Query{q}})
	}
	if err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	defer s.eng.Release(res)
	tr.Eventf("solve", "iters=%d base=%d version=%d", res.Iterations, len(res.Base), pin.Version())
	var subs []*core.Subgraph
	for _, id := range ids {
		sg, err := pin.ExplainCtx(ctx, res, id, core.DefaultExplain())
		if err != nil {
			if ctx.Err() != nil {
				s.writeCtxError(w, r, err)
				return
			}
			writeError(w, r, http.StatusBadRequest, err.Error())
			return
		}
		subs = append(subs, sg)
	}
	tr.Eventf("explain", "subgraphs=%d", len(subs))
	if pid := r.URL.Query().Get("profile"); pid != "" {
		// Profile-scoped: the feedback trains the caller's private
		// mixture and rates-delta; nothing is published to the engine.
		s.handleProfileReformulate(w, r, pin, pid, q, k, subs, confidences, opts)
		return
	}
	ref, err := pin.ReformulateWeightedCtx(ctx, q, subs, confidences, opts)
	if err != nil {
		if ctx.Err() != nil {
			s.writeCtxError(w, r, err)
			return
		}
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	tr.Eventf("reformulate", "rates=%s expansion=%d", ref.Rates.String(), len(ref.Expansion))
	newVersion, err := s.eng.TrySetRates(ref.Rates, pin.Version())
	if errors.Is(err, core.ErrRatesConflict) {
		writeConflict(w, r, "rates were changed concurrently; re-query and retry", newVersion)
		return
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	tr.Eventf("publish", "version=%d", newVersion)
	resp := ReformulateResponse{
		Query:   ref.Query.String(),
		Rates:   ref.Rates.String(),
		Version: newVersion,
	}
	// Re-pin for the post-publish solve so its answer and rendering
	// agree on one engine state (normally the state just published;
	// rendering always uses the graph the solve actually ran on).
	pin2 := s.eng.Pin()
	g2 := pin2.Corpus().Graph()
	if s.cache != nil {
		// Warm-start the reformulated solve from the feedback ranking's
		// scores AND seed the result cache at the just-published
		// version, so follow-up /query calls for the reformulated query
		// hit immediately.
		ans, err := s.cache.QueryFromPinnedCtx(ctx, pin2, ref.Query, k, res.Scores)
		if err != nil {
			s.writeCtxError(w, r, err)
			return
		}
		resp.Results = s.renderItems(g2, ref.Query, ans.Results)
	} else {
		res2, err := solveOne(ctx, pin2, core.SolveSpec{Queries: []*ir.Query{ref.Query}, Inits: [][]float64{res.Scores}})
		if err != nil {
			s.writeCtxError(w, r, err)
			return
		}
		resp.Results = s.results(g2, res2, k)
		s.eng.Release(res2)
	}
	for _, wt := range ref.Expansion {
		resp.Expansion = append(resp.Expansion, ExpansionTerm{Term: wt.Term, Weight: wt.Weight})
	}
	writeJSON(w, http.StatusOK, resp)
}

// solveOne is the uncached single-query solve: one Pinned.Solve column.
func solveOne(ctx context.Context, pin *core.Pinned, spec core.SolveSpec) (*core.RankResult, error) {
	rs, err := pin.Solve(ctx, spec)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// results renders a RankResult against g, which must be the graph of
// the generation the result was computed on (the handlers pass the
// pinned corpus's graph, never the engine's current one).
func (s *Server) results(g *graph.Graph, res *core.RankResult, k int) []Result {
	out := make([]Result, 0, k)
	for _, r := range res.TopK(k) {
		out = append(out, Result{
			Node:    int64(r.Node),
			Score:   r.Score,
			Display: g.Display(r.Node),
			Snippet: ir.Snippet(g.Text(r.Node), res.Query, 160),
			InBase:  res.InBase(r.Node),
		})
	}
	return out
}

// renderItems converts cached result items to the JSON form, attaching
// display text and snippets read from g — the pinned generation's
// graph, so a concurrent swap cannot mismatch IDs and text.
func (s *Server) renderItems(g *graph.Graph, q *ir.Query, items []cache.ResultItem) []Result {
	out := make([]Result, 0, len(items))
	for _, it := range items {
		out = append(out, Result{
			Node:    int64(it.Node),
			Score:   it.Score,
			Display: g.Display(it.Node),
			Snippet: ir.Snippet(g.Text(it.Node), q, 160),
			InBase:  it.InBase,
		})
	}
	return out
}

func parseQuery(w http.ResponseWriter, r *http.Request) (*ir.Query, int, bool) {
	raw := r.URL.Query().Get("q")
	if strings.TrimSpace(raw) == "" {
		writeError(w, r, http.StatusBadRequest, "q parameter required")
		return nil, 0, false
	}
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 || v > 1000 {
			writeError(w, r, http.StatusBadRequest, "k must be in 1..1000")
			return nil, 0, false
		}
		k = v
	}
	q := ir.ParseQuery(raw)
	if len(q.Terms()) == 0 {
		// Punctuation-/stopword-only input tokenizes to nothing; an
		// empty query used to fall through to a meaningless all-zero
		// base distribution. Reject it at the door.
		writeError(w, r, http.StatusBadRequest, "q contains no indexable terms")
		return nil, 0, false
	}
	return q, k, true
}

// parseNodeID validates one node-ID request parameter against the
// served graph: it must be a decimal integer in [0, NumNodes). The
// PRE-PR-4 handlers accepted any integer here and let negative or
// out-of-range IDs travel all the way into the explain stage (or, for
// feedback lists, into NodeID conversions that silently truncated on
// 32-bit overflow); now every ID is bounds-checked at the door and the
// 400 carries the request ID.
// The graph is passed explicitly (the caller's PINNED generation), so
// validation and use can never disagree across a concurrent swap.
func (s *Server) parseNodeID(w http.ResponseWriter, r *http.Request, g *graph.Graph, raw, what string) (graph.NodeID, bool) {
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad or missing "+what+": "+strconv.Quote(raw))
		return 0, false
	}
	if id < 0 || id >= int64(g.NumNodes()) {
		writeError(w, r, http.StatusBadRequest,
			what+" "+raw+" out of range [0, "+strconv.Itoa(g.NumNodes())+")")
		return 0, false
	}
	return graph.NodeID(id), true
}

// parseConfidences parses the optional confidence parameter of
// /reformulate: a comma-separated list of per-feedback-object weights
// for the ReformulateWeighted click-through path. nil (the parameter
// absent) means explicit marks — weight 1 everywhere. Each value must
// be a finite, non-negative float and the count must match the
// feedback count; NaN/Inf/negative values used to be representable in
// float syntax and would previously have reached the rate-adjustment
// arithmetic.
func parseConfidences(w http.ResponseWriter, r *http.Request, feedbackCount int) ([]float64, bool) {
	raw := r.URL.Query().Get("confidence")
	if raw == "" {
		return nil, true
	}
	var out []float64
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			writeError(w, r, http.StatusBadRequest,
				"bad confidence "+strconv.Quote(part)+": must be a finite non-negative number")
			return nil, false
		}
		out = append(out, v)
	}
	if len(out) != feedbackCount {
		writeError(w, r, http.StatusBadRequest,
			strconv.Itoa(len(out))+" confidence values for "+strconv.Itoa(feedbackCount)+" feedback objects")
		return nil, false
	}
	return out, true
}

// Engine exposes the underlying engine for tests and embedding.
func (s *Server) Engine() *core.Engine { return s.eng }

// Cache exposes the serving cache (nil when disabled).
func (s *Server) Cache() *cache.CachedEngine { return s.cache }

// Dataset exposes the currently served dataset (republished by corpus
// swaps).
func (s *Server) Dataset() *datagen.Dataset { return s.ds.Load() }

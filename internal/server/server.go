// Package server implements the HTTP JSON API of the deployed
// ObjectRank2 demo (the paper's web system at
// dbir.cis.fiu.edu/ObjectRankReformulation): querying, result
// explanation, and feedback-driven reformulation with per-process
// trained rates.
//
// Endpoints (see api.go for the full surface, DTOs and the error
// envelope); every route is under /v1, plus /metrics:
//
//	GET  /v1/query?q=olap&k=10
//	POST /v1/query/batch
//	GET  /v1/explain?q=olap&target=123
//	GET  /v1/audit?q=olap&target=123
//	GET  /v1/reformulate?q=olap&feedback=123,456&mode=structure|content|both[&version=N]
//	GET  /v1/rates
//	GET  /v1/healthz
//	GET  /v1/stats
//
// Concurrency: the server holds no locks. Every handler loads the
// engine's current rates snapshot once (Engine.Pin) and serves every
// step of the request from that pinned view; concurrent reformulations
// publish through the engine's compare-and-swap. /v1/reformulate is
// optimistic: the response carries the rates version it ran under, an
// optional version=N parameter asserts the client's expected version,
// and a lost race returns 409 Conflict with the winning version so the
// client can re-read and retry.
//
// Every read runs through the internal/cache serving cache: repeated
// queries hit a version-keyed result cache, single-keyword queries
// share converged term vectors, concurrent identical misses collapse
// onto one solve, and /v1/stats exposes the
// hit/miss/eviction/singleflight/bytes counters. WithCache sizes it.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/url"
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
	ds       atomic.Pointer[datagen.Dataset]
	eng      *core.Engine
	cfg      core.Config         // post-chaining config, reused to build swapped-in corpora
	swapDir  string              // "" = /v1/corpus/swap disabled
	cache    *cache.CachedEngine // every read goes through it
	profiles *profile.Manager    // nil when personalization is disabled
	obs      *serverObs          // always non-nil; see ObsOptions
	adm      *admission          // always non-nil; zero options = no limits
}

// Option configures optional Server behaviour.
type Option func(*serverOptions)

type serverOptions struct {
	cacheBytes     int64           // 0 = cache.DefaultMaxBytes
	profileOpts    profile.Options // Dir and BasisSize; see WithProfiles
	profileEnabled bool
	obs            ObsOptions
	admission      AdmissionOptions
	swapDir        string
}

// WithCache sizes the serving cache: total byte budget (0 =
// cache.DefaultMaxBytes). The second parameter is inert (see
// cache.CachedEngine.Close).
func WithCache(maxBytes int64, prewarmTerms int) Option {
	return func(o *serverOptions) { o.cacheBytes = maxBytes }
}

// New builds a Server over a dataset. Without options the serving cache
// runs at cache.Options' defaults.
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
	s := &Server{eng: eng, cfg: cfg, swapDir: so.swapDir, cache: cache.New(eng, cache.Options{MaxBytes: so.cacheBytes}),
		obs: sobs, adm: newAdmission(so.admission)}
	s.ds.Store(ds)
	if so.profileEnabled {
		po := so.profileOpts
		// Personalized queries share the global tier's serving cache:
		// the (1−β)·r(Q) component comes from the same term vectors,
		// result collapse and solve singleflight as /v1/query, and the
		// basis holds that cache's vectors.
		po.Cache = s.cache
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

// Close does nothing (see cache.CachedEngine.Close).
func (s *Server) Close() {}

// Handler returns the routed HTTP handler. Every route runs inside
// the observability middleware (request ID + X-Request-ID header,
// per-handler request/latency metrics, access and slow-query logs);
// /metrics serves the Prometheus exposition, and /debug/pprof/ is
// mounted when ObsOptions.Pprof is set.
//
// Only the routes table is mounted; any other path is the mux's plain
// 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		h := rt.handle
		if rt.guarded {
			h = s.guard(h)
		}
		mux.Handle(rt.pattern, s.obs.mw.Wrap(rt.pattern, h))
	}
	// /metrics stays unversioned by Prometheus convention.
	mux.Handle("/metrics", s.obs.mw.Wrap("/metrics", s.obs.reg.Handler()))
	if s.obs.pprof {
		mountPprof(mux)
	}
	return mux
}

// route is one mounted API endpoint.
type route struct {
	pattern string
	guarded bool
	handle  http.HandlerFunc
}

// routes is the whole API surface. Guarded endpoints (each may run a
// kernel solve) go through the admission guard: bounded in-flight
// slots, queue-wait shedding, and the per-request deadline. Operator
// endpoints never do — an overloaded replica must stay inspectable and
// swappable — and neither does profile CRUD (byte-sized record I/O, no
// kernel work; the personalized query and training paths run through
// the guarded /v1/query and /v1/reformulate).
func (s *Server) routes() []route {
	return []route{
		{"/v1/query", true, s.handleQuery},
		{"/v1/query/batch", true, s.handleQueryBatch},
		{"/v1/explain", true, s.handleExplain},
		{"/v1/audit", true, s.handleAudit},
		{"/v1/reformulate", true, s.handleReformulate},
		{"/v1/rates", false, s.handleRatesDispatch},
		{"/v1/healthz", false, s.handleHealth},
		{"/v1/stats", false, s.handleStats},
		{"/v1/profile/", false, s.handleProfile},
		{"/v1/corpus/swap", false, s.handleCorpusSwap},
	}
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
		CacheEnabled:  true,
		UptimeSeconds: s.obs.uptimeSeconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	byHandler := make(map[string]int64)
	s.obs.mw.Requests().Each(func(labels []string, n uint64) {
		byHandler[labels[0]+" "+labels[1]] = int64(n)
	})
	planBuilds := make(map[string]int64)
	s.obs.planBuilds.Each(func(labels []string, n uint64) {
		planBuilds[labels[0]] = int64(n)
	})
	cacheStats := s.cache.Stats()
	resp := StatsResponse{
		CacheEnabled:  true,
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

			PlanBuilds:       planBuilds,
			PlanBuildSeconds: s.obs.planBuildSeconds.Sum(),
		},
		Explain: ExplainStats{
			Total:        int64(s.obs.explainTotal.Total()),
			Truncated:    int64(s.obs.explainTruncated.Count()),
			SubgraphArcs: int64(s.obs.explainArcs.Sum()),
		},
		Cache: &cacheStats,
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
	writeJSON(w, http.StatusOK, RatesResponse{
		Rates:   rates.String(),
		Vector:  rates.Vector(),
		Version: pin.Version(),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query() // parsed once; every parameter below reads it
	q, k, ok := parseQuery(w, r, v)
	if !ok {
		return
	}
	rp, ok := parseReadParams(w, r, v)
	if !ok {
		return
	}
	// Pin ONE engine state for the whole request: the solve, the cache
	// lookups and the node rendering below all see the same corpus
	// generation even if a swap lands mid-request.
	ctx := r.Context()
	pin := s.eng.Pin()
	tr := obs.TraceFrom(ctx)
	spelled := q.String()
	tr.Eventf("parse", "q=%s k=%d mode=%s", spelled, k, rp.Mode)
	if pid := v.Get("profile"); pid != "" {
		// Profiles personalize the authority flow system; the hub axis
		// has no basis-projected store behind it.
		if rp.Mode != core.ModeAuthority {
			writeError(w, r, http.StatusBadRequest,
				"profile-scoped queries support only mode=authority")
			return
		}
		s.handleProfileQuery(w, r, pin, pid, q, k)
		return
	}
	ans, err := s.cache.QueryModePinnedCtx(ctx, pin, q, k, rp.Mode)
	if err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	tr.Eventf("solve", "source=%s iters=%d base=%d version=%d generation=%d",
		ans.Source, ans.Iterations, ans.BaseSet, ans.Version, ans.Generation)
	setStateHeaders(w, ans.Generation, ans.Version)
	if body := ans.Body(spelled); body != nil {
		// The commonest request: the entry already carries these very
		// bytes, so nothing is rendered and nothing is encoded.
		s.obs.cacheOutcome.With(ans.Source).Inc()
		tr.Eventf("render", "results=%d", len(ans.Results))
		writeBody(w, http.StatusOK, body)
		return
	}
	resp := s.queryResponse(pin.Corpus().Graph(), q, rp.Mode, ans)
	tr.Eventf("render", "results=%d", len(resp.Results))
	if ans.Source == cache.SourceResult {
		// A repeat that found no body for its spelling: this rendering is
		// the hit form, so it is kept with the entry (the first one is;
		// see cache.AttachBody). A miss attaches nothing — most queries
		// are never repeated, and theirs would be bodies nobody reads.
		// The encoder is writeJSON's, so kept and fresh bytes are the same;
		// the buffer is not pooled, because the cache keeps its bytes.
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err == nil {
			s.cache.AttachBody(ans, spelled, buf.Bytes())
			writeBody(w, http.StatusOK, buf.Bytes())
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// setStateHeaders names the engine state a /v1/query answer was served
// under — the same two numbers as the body's generation and version.
func setStateHeaders(w http.ResponseWriter, generation, version uint64) {
	h := w.Header()
	h.Set(HeaderGeneration, strconv.FormatUint(generation, 10))
	h.Set(HeaderRatesVersion, strconv.FormatUint(version, 10))
}

// queryResponse renders one serving-cache answer as the /v1/query
// payload — also the shape of every /v1/query/batch item — and counts
// its provenance.
func (s *Server) queryResponse(g *graph.Graph, q *ir.Query, m core.Mode, ans *cache.Answer) QueryResponse {
	s.obs.cacheOutcome.With(ans.Source).Inc()
	return QueryResponse{
		Query:      q.String(),
		Mode:       modeField(m),
		BaseSet:    ans.BaseSet,
		Iterations: ans.Iterations,
		Version:    ans.Version,
		Generation: ans.Generation,
		Cache:      ans.Source,
		Results:    renderResults(g, q, ans.Results),
	}
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

// rankedTarget is what /v1/explain and /v1/audit share before they
// diverge: one pinned snapshot, the query and read parameters parsed
// against it, the target node and the query's whole score vector.
type rankedTarget struct {
	pin    *core.Pinned
	q      *ir.Query
	rp     ReadParams
	target graph.NodeID
	res    *core.RankResult // the caller releases it
}

// rankTarget runs that shared first half; when ok is false the error
// response has been written. One snapshot is pinned so the ranking and
// what is derived from it cannot see different rates even if a
// reformulation lands in between, and so the target ID is validated
// against the SAME generation's graph the solve runs on. Single-keyword
// rankings are the shared term vectors themselves (core.RankResult.Shared:
// read-only, and Release leaves them out of the pool).
func (s *Server) rankTarget(w http.ResponseWriter, r *http.Request) (t rankedTarget, ok bool) {
	v := r.URL.Query()
	if t.q, _, ok = parseQuery(w, r, v); !ok {
		return t, false
	}
	if t.rp, ok = parseReadParams(w, r, v); !ok {
		return t, false
	}
	ctx := r.Context()
	t.pin = s.eng.Pin()
	if t.target, ok = s.parseNodeID(w, r, t.pin.Corpus().Graph(), v.Get("target"), "target"); !ok {
		return t, false
	}
	tr := obs.TraceFrom(ctx)
	tr.Eventf("parse", "q=%s target=%d mode=%s budget=%d", t.q.String(), t.target, t.rp.Mode, t.rp.Budget)
	var err error
	if t.res, err = s.cache.RankModePinnedCtx(ctx, t.pin, t.q, t.rp.Mode); err != nil {
		s.writeCtxError(w, r, err)
		return t, false
	}
	tr.Eventf("solve", "iters=%d base=%d", t.res.Iterations, len(t.res.Base))
	return t, true
}

// writeRunError answers for a core call that failed under the request's
// context: the request's own death goes through writeCtxError, anything
// else is the client's input and a 400.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		s.writeCtxError(w, r, err)
		return
	}
	writeError(w, r, http.StatusBadRequest, err.Error())
}

// explainTarget is the second half /v1/explain and /v1/audit share:
// the target's Section 4 explaining subgraph at the paper's radius
// (core.DefaultExplain), built once, and a trace event named event
// saying what the kernel built and how long each stage took. When ok is
// false the error response has been written. Either way t.res is
// released.
func (s *Server) explainTarget(w http.ResponseWriter, r *http.Request, t rankedTarget, event string) (sg *core.Subgraph, ok bool) {
	sg, err := t.pin.ExplainModeCtx(r.Context(), t.rp.Mode, t.res, t.target, core.DefaultExplain())
	s.eng.Release(t.res)
	if err != nil {
		s.writeRunError(w, r, err)
		return nil, false
	}
	obs.TraceFrom(r.Context()).Eventf(event, "nodes=%d arcs=%d iters=%d build_ms=%.3f adjust_ms=%.3f", len(sg.Nodes), len(sg.Arcs),
		sg.Iterations, sg.BuildDuration.Seconds()*1e3, sg.AdjustDuration.Seconds()*1e3)
	return sg, true
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	t, ok := s.rankTarget(w, r)
	if !ok {
		return
	}
	pin, rp, g := t.pin, t.rp, t.pin.Corpus().Graph()
	sg, ok := s.explainTarget(w, r, t, "explain")
	if !ok {
		return
	}
	s.obs.explainTotal.With(string(rp.Mode), rp.Format).Inc()
	s.obs.explainArcs.Observe(float64(len(sg.Arcs)))
	switch rp.Format {
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = storage.ExportHTML(w, g, sg)
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		_ = storage.ExportDOT(w, g, sg)
	default:
		// The JSON format carries the shared explain/audit envelope, and
		// the whole body obeys the budget (api.go's ExplainResponse);
		// html and dot stay complete exports of the subgraph.
		a := core.AuditOf(sg, rp.Budget)
		if a.TotalArcs > a.Budget {
			s.obs.explainTruncated.Inc()
		}
		writeJSON(w, http.StatusOK, ExplainResponse{
			SubgraphJSON:  storage.BuildSubgraphJSON(g, sg, a.Budget),
			Node:          int64(sg.Target),
			Score:         sg.ExplainedScore(),
			Mode:          string(rp.Mode),
			Budget:        a.Budget,
			TotalArcs:     a.TotalArcs,
			TotalNodes:    len(sg.Nodes),
			Generation:    pin.Generation(),
			RatesVersion:  pin.Version(),
			Contributions: contributions(g, a),
		})
	}
}

func (s *Server) handleReformulate(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	q, k, ok := parseQuery(w, r, v)
	if !ok {
		return
	}
	var opts core.ReformulateOptions
	switch mode := v.Get("mode"); mode {
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
	for _, part := range strings.Split(v.Get("feedback"), ",") {
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
	confidences, ok := parseConfidences(w, r, v.Get("confidence"), len(ids))
	if !ok {
		return
	}

	tr := obs.TraceFrom(ctx)
	tr.Eventf("parse", "q=%s feedback=%d", q.String(), len(ids))
	if vs := v.Get("version"); vs != "" {
		want, err := strconv.ParseUint(vs, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "bad version token "+vs)
			return
		}
		if want != pin.Version() {
			writeConflict(w, r, "rates were changed since version "+vs, pin.Version())
			return
		}
	}
	res, err := s.cache.RankPinnedCtx(ctx, pin, q)
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
			s.writeRunError(w, r, err)
			return
		}
		subs = append(subs, sg)
	}
	tr.Eventf("explain", "subgraphs=%d", len(subs))
	if pid := v.Get("profile"); pid != "" {
		// Profile-scoped: the feedback trains the caller's private
		// mixture and rates-delta; nothing is published to the engine.
		s.handleProfileReformulate(w, r, pin, pid, q, k, subs, confidences, opts)
		return
	}
	ref, err := pin.ReformulateWeightedCtx(ctx, q, subs, confidences, opts)
	if err != nil {
		s.writeRunError(w, r, err)
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
	// Warm-start the reformulated solve from the feedback ranking's
	// scores AND seed the result cache at the just-published version, so
	// follow-up /v1/query calls for the reformulated query hit
	// immediately.
	ans, err := s.cache.QueryFromPinnedCtx(ctx, pin2, ref.Query, k, res.Scores)
	if err != nil {
		s.writeCtxError(w, r, err)
		return
	}
	resp.Results = renderResults(g2, ref.Query, ans.Results)
	for _, wt := range ref.Expansion {
		resp.Expansion = append(resp.Expansion, ExpansionTerm{Term: wt.Term, Weight: wt.Weight})
	}
	writeJSON(w, http.StatusOK, resp)
}

// renderResults is the one renderer of ranked answers — query, batch
// item, reformulate and profile alike: it attaches display text and
// snippets read from g, which must be the pinned generation's graph
// (never the engine's current one), so a concurrent swap cannot
// mismatch IDs and text.
func renderResults(g *graph.Graph, q *ir.Query, items []cache.ResultItem) []Result {
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

// parseQuery reads q and k out of the request's already-parsed URL query.
func parseQuery(w http.ResponseWriter, r *http.Request, v url.Values) (*ir.Query, int, bool) {
	raw := v.Get("q")
	if strings.TrimSpace(raw) == "" {
		writeError(w, r, http.StatusBadRequest, "q parameter required")
		return nil, 0, false
	}
	k := 10
	if ks := v.Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil || n <= 0 || n > 1000 {
			writeError(w, r, http.StatusBadRequest, "k must be in 1..1000")
			return nil, 0, false
		}
		k = n
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
func parseConfidences(w http.ResponseWriter, r *http.Request, raw string, feedbackCount int) ([]float64, bool) {
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

// Cache exposes the serving cache.
func (s *Server) Cache() *cache.CachedEngine { return s.cache }

// Dataset exposes the currently served dataset (republished by corpus
// swaps).
func (s *Server) Dataset() *datagen.Dataset { return s.ds.Load() }

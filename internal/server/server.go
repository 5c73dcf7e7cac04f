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
// Concurrency: the server holds no locks. Every request goes through one
// skeleton (request.go) that loads the engine's current state once
// (Engine.Pin) and serves every step of the request from that pinned
// view; concurrent reformulations
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
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/profile"
	"authorityflow/internal/rank"
	"authorityflow/internal/storage"
)

// Server serves one dataset through one engine. Reformulation state
// (the trained authority transfer rates) is process-wide, published as
// atomically versioned snapshots by the engine; handlers are lock-free
// and safe under unbounded concurrency.
type Server struct {
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
	cfg.Name = ds.Name
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
	if so.profileEnabled {
		po := so.profileOpts
		// Personalized queries share the global tier's serving cache:
		// the (1−β)·r(Q) component comes from the same term vectors,
		// result collapse and solve singleflight as /v1/query, and the
		// blend reads its mixture terms' vectors from it too.
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
	for _, ep := range routes {
		h := s.serve(ep)
		if ep.guarded {
			h = s.guard(h)
		}
		mux.Handle(ep.pattern, s.obs.mw.Wrap(ep.pattern, h))
	}
	// /metrics stays unversioned by Prometheus convention.
	mux.Handle("/metrics", s.obs.mw.Wrap("/metrics", s.obs.reg.Handler()))
	if s.obs.pprof {
		mountPprof(mux)
	}
	return mux
}

// routes is the whole API surface, one endpoint per route, each served
// through the skeleton (request.go). Guarded endpoints (each may run a
// kernel solve) go through the admission guard: bounded in-flight
// slots, queue-wait shedding, and the per-request deadline. Operator
// endpoints never do — an overloaded replica must stay inspectable and
// swappable — and neither does profile CRUD (byte-sized record I/O, no
// kernel work; the personalized query and training paths run through
// the guarded /v1/query and /v1/reformulate).
var routes = []endpoint{
	queryEndpoint,
	batchEndpoint,
	explainEndpoint,
	auditEndpoint,
	reformulateEndpoint,
	ratesEndpoint,
	healthEndpoint,
	statsEndpoint,
	profileEndpoint,
	swapEndpoint,
}

// The request/response DTOs of every endpoint live in api.go, the
// single definition point of the public surface.

// healthEndpoint is /v1/healthz: what the replica serves, under the pin.
var healthEndpoint = endpoint{pattern: "/v1/healthz", run: (*Server).runHealth}

func (s *Server) runHealth(rq *request) (reply, error) {
	return reply{what: "nodes", n: rq.g.NumNodes(), json: HealthResponse{
		Status:        "ok",
		Name:          rq.pin.Corpus().Name(),
		Nodes:         rq.g.NumNodes(),
		Edges:         rq.g.NumEdges(),
		RatesVersion:  rq.pin.Version(),
		Generation:    rq.pin.Generation(),
		CacheEnabled:  true,
		UptimeSeconds: s.obs.uptimeSeconds(),
	}}, nil
}

// statsEndpoint is /v1/stats: the counters /metrics exports, as JSON.
var statsEndpoint = endpoint{pattern: "/v1/stats", run: (*Server).runStats}

func (s *Server) runStats(rq *request) (reply, error) {
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
		RatesVersion:  rq.pin.Version(),
		Generation:    rq.pin.Generation(),
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
	return reply{what: "handlers", n: len(byHandler), json: resp}, nil
}

// queryEndpoint is /v1/query: the top k of q, from the serving cache or,
// with ?profile=, from the profile's blend.
var queryEndpoint = endpoint{pattern: "/v1/query", guarded: true, query: true, contract: true, profile: true,
	parse: func(s *Server, rq *request, r *http.Request) (string, error) {
		return "q=" + rq.spelled + " k=" + strconv.Itoa(rq.k) + " mode=" + string(rq.rp.Mode), nil
	},
	run: (*Server).runQuery,
}

func (s *Server) runQuery(rq *request) (reply, error) {
	var ans *cache.Answer
	var personalized bool
	var err error
	if rq.profile != "" {
		ans, personalized, err = s.personal(rq, rq.q)
	} else if ans, err = s.cache.QueryModePinnedCtx(rq.ctx, rq.pin, rq.q, rq.k, rq.rp.Mode); err == nil {
		rq.tr.Eventf("solve", "source=%s iters=%d base=%d version=%d generation=%d",
			ans.Source, ans.Iterations, ans.BaseSet, ans.Version, ans.Generation)
		s.obs.cacheOutcome.With(ans.Source).Inc()
	}
	if err != nil {
		return reply{}, err
	}
	rep := reply{what: "results", n: len(ans.Results), gen: ans.Generation, version: ans.Version}
	if rep.body = ans.Body(rq.spelled); rep.body != nil {
		// The commonest request: the entry already carries these very
		// bytes, so nothing is rendered and nothing is encoded.
		return rep, nil
	}
	resp := queryResponse(rq.g, rq.q, rq.rp.Mode, ans)
	resp.Profile, resp.Personalized = rq.profile, personalized
	if ans.Source == cache.SourceResult {
		// A repeat that found no body for its spelling: this rendering is
		// the hit form, so it is kept with the entry (the first one is;
		// see cache.AttachBody). A miss attaches nothing — most queries
		// are never repeated, and theirs would be bodies nobody reads.
		// The encoder is WriteJSON's, so kept and fresh bytes are the same;
		// the buffer is not pooled, because the cache keeps its bytes.
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err == nil {
			s.cache.AttachBody(ans, rq.spelled, buf.Bytes())
			rep.body = buf.Bytes()
			return rep, nil
		}
	}
	rep.json = resp
	return rep, nil
}

// setStateHeaders names the engine state a /v1/query answer was served
// under — the same two numbers as the body's generation and version.
func setStateHeaders(w http.ResponseWriter, generation, version uint64) {
	h := w.Header()
	h.Set(HeaderGeneration, strconv.FormatUint(generation, 10))
	h.Set(HeaderRatesVersion, strconv.FormatUint(version, 10))
}

// queryResponse is the one /v1/query payload — global, personalized and
// every /v1/query/batch item alike — rendered against g, the graph the
// answer was computed on.
func queryResponse(g *graph.Graph, q *ir.Query, m core.Mode, ans *cache.Answer) QueryResponse {
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

// explainEndpoint is /v1/explain: the target's explaining subgraph,
// rendered as json, html or dot.
var explainEndpoint = endpoint{pattern: "/v1/explain", guarded: true, query: true, contract: true,
	parse: (*Server).parseTarget, run: (*Server).runExplain}

// parseTarget reads the target of /v1/explain and /v1/audit.
func (s *Server) parseTarget(rq *request, r *http.Request) (string, error) {
	var err error
	if rq.target, err = parseNodeID(rq.g, rq.v.Get("target"), "target"); err != nil {
		return "", err
	}
	return fmt.Sprintf("q=%s target=%d mode=%s budget=%d", rq.spelled, rq.target, rq.rp.Mode, rq.rp.Budget), nil
}

// explainTarget is what /v1/explain and /v1/audit share: the query's
// score vector in the requested mode (single-keyword rankings are the
// cache's shared term vectors), then the target's Section 4 explaining
// subgraph at the paper's radius (core.DefaultExplain), counted in
// afq_explain_topology_total under route event, with an event named
// event (explainDetail).
func (s *Server) explainTarget(rq *request, event string) (*core.Subgraph, error) {
	res, err := s.cache.RankModePinnedCtx(rq.ctx, rq.pin, rq.q, rq.rp.Mode)
	if err != nil {
		return nil, err
	}
	rq.tr.Eventf("solve", "iters=%d base=%d", res.Iterations, len(res.Base))
	sg, err := rq.pin.ExplainModeCtx(rq.ctx, rq.rp.Mode, res, rq.target, core.DefaultExplain())
	s.eng.Release(res)
	if err != nil {
		return nil, inputError{err}
	}
	s.obs.countTopology(event, sg)
	rq.tr.Eventf(event, explainDetail, explainArgs(sg)...)
	return sg, nil
}

// explainDetail is the trace detail of an explain, filled by
// explainArgs: what the kernel kept, whether it built, reused or
// derived the subgraph's topology, and how long each stage took.
const explainDetail = "nodes=%d arcs=%d iters=%d topology=%s build_ms=%.3f adjust_ms=%.3f"

func explainArgs(sg *core.Subgraph) []any {
	return []any{len(sg.Nodes), len(sg.Arcs), sg.Iterations, sg.TopologyPath(),
		sg.BuildDuration.Seconds() * 1e3, sg.AdjustDuration.Seconds() * 1e3}
}

func (s *Server) runExplain(rq *request) (reply, error) {
	sg, err := s.explainTarget(rq, "explain")
	if err != nil {
		return reply{}, err
	}
	rp, g := rq.rp, rq.g
	s.obs.explainTotal.With(string(rp.Mode), rp.Format).Inc()
	s.obs.explainArcs.Observe(float64(len(sg.Arcs)))
	switch rp.Format {
	case "html":
		return reply{contentType: "text/html; charset=utf-8", what: "arcs", n: len(sg.Arcs),
			export: func(w io.Writer) error { return storage.ExportHTML(w, g, sg) }}, nil
	case "dot":
		return reply{contentType: "text/vnd.graphviz", what: "arcs", n: len(sg.Arcs),
			export: func(w io.Writer) error { return storage.ExportDOT(w, g, sg) }}, nil
	}
	// The JSON format carries the shared explain/audit envelope, and the
	// whole body obeys the budget (api.go's ExplainResponse); html and
	// dot stay complete exports of the subgraph.
	a := core.AuditOf(sg, rp.Budget)
	if a.TotalArcs > a.Budget {
		s.obs.explainTruncated.Inc()
	}
	return reply{what: "contributions", n: len(a.Arcs), json: ExplainResponse{
		SubgraphJSON:  storage.BuildSubgraphJSON(g, sg, a.Budget),
		Node:          int64(sg.Target),
		Score:         sg.ExplainedScore(),
		Mode:          string(rp.Mode),
		Budget:        a.Budget,
		TotalArcs:     a.TotalArcs,
		TotalNodes:    len(sg.Nodes),
		Generation:    rq.pin.Generation(),
		RatesVersion:  rq.pin.Version(),
		Contributions: contributions(g, a),
	}}, nil
}

// reformulateEndpoint is /v1/reformulate: feedback publishes new global
// rates or, with ?profile=, trains the profile's mixture.
var reformulateEndpoint = endpoint{pattern: "/v1/reformulate", guarded: true, query: true, profile: true,
	parse: (*Server).parseFeedback, run: (*Server).runReformulate}

// parseFeedback reads /v1/reformulate's strategy, feedback ids (at most
// MaxFeedback), confidences and version token. The token is checked
// here, against the pin: a stale one is the 409 before any work.
func (s *Server) parseFeedback(rq *request, r *http.Request) (string, error) {
	var err error
	if rq.strategy, err = core.ParseStrategy(rq.v.Get("mode")); err != nil {
		return "", badRequest(err.Error())
	}
	for _, part := range strings.Split(rq.v.Get("feedback"), ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		id, err := parseNodeID(rq.g, part, "feedback id")
		if err != nil {
			return "", err
		}
		rq.feedback = append(rq.feedback, id)
	}
	if len(rq.feedback) == 0 {
		return "", badRequest("feedback ids required")
	}
	if len(rq.feedback) > MaxFeedback {
		return "", badRequest(strconv.Itoa(len(rq.feedback)) + " feedback ids exceeds the feedback limit of " + strconv.Itoa(MaxFeedback))
	}
	if rq.confidences, err = parseConfidences(rq.v.Get("confidence"), len(rq.feedback)); err != nil {
		return "", err
	}
	if vs := rq.v.Get("version"); vs != "" {
		want, err := strconv.ParseUint(vs, 10, 64)
		if err != nil {
			return "", badRequest("bad version token " + vs)
		}
		if want != rq.pin.Version() {
			return "", conflict("rates were changed since version "+vs, rq.pin.Version(), 0)
		}
	}
	return fmt.Sprintf("q=%s feedback=%d", rq.spelled, len(rq.feedback)), nil
}

// runReformulate ranks q and then — the one choice — either explains
// the feedback, trains the request's profile and answers from its blend
// under the same pin, or runs one feedback round (Pinned.FeedbackCtx;
// 409 with the winning version on a lost publish) and answers from the
// serving cache under the state the round published, warm-started from
// the feedback ranking, which also seeds the result cache there.
func (s *Server) runReformulate(rq *request) (reply, error) {
	ctx, pin := rq.ctx, rq.pin
	res, err := s.cache.RankPinnedCtx(ctx, pin, rq.q)
	if err != nil {
		return reply{}, err
	}
	defer s.eng.Release(res)
	rq.tr.Eventf("solve", "iters=%d base=%d version=%d", res.Iterations, len(res.Base), pin.Version())

	if rq.profile != "" {
		subs, err := pin.ExplainEachCtx(ctx, res, rq.feedback, core.DefaultExplain())
		if err != nil {
			return reply{}, inputError{err}
		}
		s.traceFeedback(rq, subs)
		ref, trained, err := s.profiles.TrainCtx(ctx, pin, rq.profile, rq.q, subs, rq.confidences, rq.strategy)
		if err != nil {
			return reply{}, inputError{err}
		}
		rq.tr.Eventf("train", "profile=%s rev=%d rates=%s expansion=%d",
			rq.profile, trained.Rev, ref.Rates.String(), len(ref.Expansion))
		ans, _, err := s.personal(rq, ref.Query)
		if err != nil {
			return reply{}, err
		}
		resp := reformulateResponse(rq.g, ref, pin.Version(), ans.Results)
		resp.Profile, resp.ProfileRev = rq.profile, trained.Rev
		return reply{what: "results", n: len(resp.Results), json: resp}, nil
	}

	round, err := pin.FeedbackCtx(ctx, rq.q, res, rq.feedback, rq.confidences, rq.strategy)
	if round == nil {
		return reply{}, inputError{err}
	}
	s.traceFeedback(rq, round.Subgraphs)
	ref, next := round.Reformulation, round.Pin
	if errors.Is(err, core.ErrRatesConflict) {
		return reply{}, conflict("rates were changed concurrently; re-query and retry", next.Version(), 0)
	}
	if err != nil {
		return reply{}, err
	}
	rq.tr.Eventf("publish", "version=%d rates=%s expansion=%d", next.Version(), ref.Rates.String(), len(ref.Expansion))
	ans, err := s.cache.QueryFromPinnedCtx(ctx, next, ref.Query, rq.k, res.Scores)
	if err != nil {
		return reply{}, err
	}
	rq.tr.Eventf("requery", "source=%s", ans.Source)
	resp := reformulateResponse(next.Corpus().Graph(), ref, next.Version(), ans.Results)
	return reply{what: "results", n: len(resp.Results), json: resp}, nil
}

// traceFeedback counts and traces the explains of a reformulation's
// feedback objects.
func (s *Server) traceFeedback(rq *request, subs []*core.Subgraph) {
	for i, sg := range subs {
		s.obs.countTopology("reformulate", sg)
		rq.tr.Eventf("explain", "target=%d "+explainDetail, append([]any{rq.feedback[i]}, explainArgs(sg)...)...)
	}
}

// reformulateResponse is the one /v1/reformulate payload: the
// reformulated query, the rates it leaves in force, the rates version,
// the expansion terms and its answer rendered against g.
func reformulateResponse(g *graph.Graph, ref *core.Reformulation, version uint64, items []cache.ResultItem) ReformulateResponse {
	resp := ReformulateResponse{Query: ref.Query.String(), Rates: ref.Rates.String(), Version: version,
		Results: renderResults(g, ref.Query, items)}
	for _, wt := range ref.Expansion {
		resp.Expansion = append(resp.Expansion, ExpansionTerm{Term: wt.Term, Weight: wt.Weight})
	}
	return resp
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

// Engine exposes the underlying engine for tests and embedding.
func (s *Server) Engine() *core.Engine { return s.eng }

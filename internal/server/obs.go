package server

import (
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/obs"
	"authorityflow/internal/profile"
)

// ObsOptions configure the server's observability subsystem. The zero
// value is fully functional: metrics, /metrics exposition and request
// IDs are always on (they are a few atomic adds per request); the zero
// value merely disables the access log, the slow-query log, and
// /debug/pprof.
type ObsOptions struct {
	// AccessLog, when non-nil, receives one structured JSON line per
	// request.
	AccessLog io.Writer
	// SlowLog receives one JSON line — including the request's span
	// events — per request slower than SlowThreshold. Nil falls back
	// to AccessLog.
	SlowLog io.Writer
	// SlowThreshold is the slow-query latency threshold; 0 disables
	// slow-query logging.
	SlowThreshold time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off
	// by default: profiling endpoints expose heap contents and must be
	// an explicit operator decision.
	Pprof bool
}

// WithObservability configures the observability subsystem: the access
// and slow-query logs, the slow-query threshold and pprof. The server
// always builds its own registry and serves it at /metrics; servers
// built without this option still serve /metrics and request IDs, with
// no logs and no pprof.
func WithObservability(o ObsOptions) Option {
	return func(so *serverOptions) { so.obs = o }
}

// serverObs bundles the server's metric families, HTTP middleware and
// logs. One instance per Server; all fields are written at
// construction and read concurrently afterwards.
type serverObs struct {
	reg   *obs.Registry
	mw    *obs.Middleware
	start time.Time
	pprof bool

	// cacheOutcome counts /v1/query answers by provenance (the cache
	// Source values).
	cacheOutcome *obs.CounterVec
	// profileOutcome counts personalized answers by the tier's path
	// (hit / combined / global); profileUpdates counts /v1/profile
	// record writes.
	profileOutcome *obs.CounterVec
	profileUpdates *obs.Counter
	// Kernel-side families, fed by the engine's solve hook and the
	// per-iteration observer.
	solves           *obs.Counter
	warmSolves       *obs.Counter
	kernelIterations *obs.Histogram
	solveSeconds     *obs.Histogram
	planBuilds       *obs.CounterVec
	planBuildSeconds *obs.Histogram
	iterTotal        *obs.Counter
	ratesVersion     *obs.Gauge
	generation       *obs.Gauge
	swapsTotal       *obs.Counter

	// Admission-control families (PR-4 deadline-aware lifecycle):
	// sheds, deadline expiries, client cancellations, queue wait, and
	// the live count of admitted expensive requests.
	shedTotal        *obs.Counter
	timeoutTotal     *obs.Counter
	cancelledTotal   *obs.Counter
	queueWaitSeconds *obs.Histogram
	inflight         *obs.Gauge

	// Audit-workload families (/v1/audit): request count by mode,
	// clipped audits (subgraph larger than the budget), and the size of
	// the returned contribution list.
	auditTotal         *obs.CounterVec
	auditTruncated     *obs.Counter
	auditContributions *obs.Histogram

	// Explain-workload families (/v1/explain), the audit families'
	// twins: request count by mode and format, the size of the whole
	// explaining subgraph, and JSON bodies the budget clipped.
	explainTotal     *obs.CounterVec
	explainArcs      *obs.Histogram
	explainTruncated *obs.Counter
	// explainTopology counts the explains of /v1/explain, /v1/audit and
	// /v1/reformulate's feedback by how each came by its topology
	// (core.Subgraph.TopologyPath), every series resolved at
	// construction so a count allocates nothing.
	explainTopology map[topologySeries]*obs.Counter
}

// topologySeries is one series of afq_explain_topology_total: a route
// and a topology path.
type topologySeries struct{ route, path string }

// newServerObs registers every metric family. Family names are
// namespaced afq_*; see DESIGN.md §7 for the full table.
func newServerObs(o ObsOptions) *serverObs {
	reg := obs.NewRegistry()
	so := &serverObs{reg: reg, start: time.Now(), pprof: o.Pprof}
	so.mw = obs.NewMiddleware(reg, "afq")
	so.mw.AccessLog = obs.NewLogger(o.AccessLog)
	slow := o.SlowLog
	if slow == nil {
		slow = o.AccessLog
	}
	so.mw.SlowLog = obs.NewLogger(slow)
	so.mw.SlowThreshold = o.SlowThreshold

	so.cacheOutcome = reg.NewCounterVec("afq_query_cache_outcome_total",
		"Served /query answers by provenance: result (result-cache hit), term (term-vector hit), computed (kernel solve ran).",
		"source")
	for _, s := range cache.Sources() {
		so.cacheOutcome.With(s) // pre-create so every outcome is visible at 0
	}
	so.profileOutcome = reg.NewCounterVec("afq_profile_query_outcome_total",
		"Personalized answers by path: hit (profile-scoped result entry), combined (the blend ran), global (profile carried no usable mixture).",
		"source")
	for _, s := range []string{string(profile.SourceHit), string(profile.SourceCombined), string(profile.SourceGlobal)} {
		so.profileOutcome.With(s)
	}
	so.profileUpdates = reg.NewCounter("afq_profile_updates_total",
		"Profile records written through PUT/POST /v1/profile/{id}.")
	so.solves = reg.NewCounter("afq_kernel_solves_total",
		"Completed Solve calls that swept at least one column, however many (all entry points, including cache-internal solves).")
	so.warmSolves = reg.NewCounter("afq_kernel_warm_solves_total",
		"Solve calls with a column §6.2 warm-started from a previous score vector.")
	so.kernelIterations = reg.NewHistogram("afq_kernel_iterations",
		"Iterations to convergence per Solve call: its slowest column's.", obs.IterationBuckets())
	so.solveSeconds = reg.NewHistogram("afq_kernel_solve_seconds",
		"Wall-clock duration of the kernel iteration stage per Solve call.", obs.DefaultLatencyBuckets())
	so.planBuilds = reg.NewCounterVec("afq_kernel_plan_builds_total",
		"Coefficient plans built by multi-column solves: at most one per rates snapshot and direction, none by one-column solves.",
		"direction")
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		so.planBuilds.With(string(m))
	}
	so.planBuildSeconds = reg.NewHistogram("afq_kernel_plan_build_seconds",
		"Wall-clock duration of building one coefficient plan (part of that call's afq_kernel_solve_seconds).", obs.DefaultLatencyBuckets())
	so.iterTotal = reg.NewCounter("afq_kernel_iterations_total",
		"Total power iterations executed across all kernel runs (fed by the per-iteration observer).")
	so.ratesVersion = reg.NewGauge("afq_rates_version",
		"Version of the currently published rates snapshot.")
	so.generation = reg.NewGauge("afq_corpus_generation",
		"Generation number of the currently served corpus (starts at 1; each successful swap increments it).")
	so.swapsTotal = reg.NewCounter("afq_corpus_swaps_total",
		"Successful /v1/corpus/swap publications since process start.")
	so.shedTotal = reg.NewCounter("afq_http_shed_total",
		"Expensive requests shed with 503 because every admission slot stayed busy for the whole queue wait.")
	so.timeoutTotal = reg.NewCounter("afq_http_timeout_total",
		"Requests that hit the per-request deadline (server cap or X-Request-Timeout-Ms) and were answered 504.")
	so.cancelledTotal = reg.NewCounter("afq_http_cancelled_total",
		"Requests abandoned by the client before the answer was ready (status 499 in the access log).")
	so.queueWaitSeconds = reg.NewHistogram("afq_http_queue_wait_seconds",
		"Time admitted requests spent waiting for an admission slot.", obs.DefaultLatencyBuckets())
	so.inflight = reg.NewGauge("afq_http_inflight",
		"Expensive requests currently holding an admission slot.")
	so.auditTotal = reg.NewCounterVec("afq_audit_requests_total",
		"Completed /v1/audit sensitivity rankings by ranking mode.", "mode")
	so.explainTotal = reg.NewCounterVec("afq_explain_total",
		"Completed /v1/explain explaining subgraphs by ranking mode and response format.", "mode", "format")
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		so.auditTotal.With(string(m))
		for _, format := range explainFormats {
			so.explainTotal.With(string(m), format)
		}
	}
	so.auditTruncated = reg.NewCounter("afq_audit_truncated_total",
		"Audits whose explaining subgraph held more arcs than the budget (the contribution list was clipped).")
	so.auditContributions = reg.NewHistogram("afq_audit_contributions",
		"Arc contributions returned per audit (post-budget).", obs.IterationBuckets())
	so.explainArcs = reg.NewHistogram("afq_explain_subgraph_arcs",
		"Arcs in the whole explaining subgraph per explain (pre-budget).", obs.ExponentialBuckets(1, 4, 10))
	so.explainTruncated = reg.NewCounter("afq_explain_truncated_total",
		"JSON explains whose subgraph held more arcs than the budget (arcs, nodes and contributions were clipped).")
	topology := reg.NewCounterVec("afq_explain_topology_total",
		"Completed explaining subgraphs by route (explain, audit, reformulate's feedback) and how each came by its topology: built (stage (i) ran whole), reused (the decoded tier), derived (restricted from the ball tier's ball of the target).",
		"route", "path")
	so.explainTopology = make(map[topologySeries]*obs.Counter)
	for _, route := range []string{"explain", "audit", "reformulate"} {
		for _, path := range []string{"built", "reused", "derived"} {
			so.explainTopology[topologySeries{route, path}] = topology.With(route, path)
		}
	}
	reg.NewGaugeFunc("afq_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(so.start).Seconds() })
	return so
}

// countTopology counts sg, explained for route, in
// afq_explain_topology_total.
func (so *serverObs) countTopology(route string, sg *core.Subgraph) {
	so.explainTopology[topologySeries{route, sg.TopologyPath()}].Inc()
}

// uptimeSeconds reports how long the server has been up.
func (so *serverObs) uptimeSeconds() float64 { return time.Since(so.start).Seconds() }

// observeIteration is the rank.IterObserver threaded into the engine's
// kernel options: one atomic add per power iteration, from any solve.
func (so *serverObs) observeIteration(iter int, residual float64) {
	so.iterTotal.Inc()
}

// solveHook is the engine's solve hook: the kernel-side families, and
// for a multi-column solve inside a traced request its solve event.
func (so *serverObs) solveHook(st core.SolveStats) {
	so.solves.Inc()
	if st.WarmStarted {
		so.warmSolves.Inc()
	}
	so.kernelIterations.Observe(float64(st.Iterations))
	so.solveSeconds.Observe(st.SolveDur.Seconds())
	// What follows belongs to multi-column solves; one that finds its
	// plan built, outside a traced request, pays two branches and no
	// allocation.
	plan := "reused"
	if st.PlanBuilt {
		plan = "built"
		so.planBuilds.With(string(st.Mode)).Inc()
		so.planBuildSeconds.Observe(st.PlanBuildDur.Seconds())
	}
	if st.Columns > 1 {
		if tr := obs.TraceFrom(st.Ctx); tr != nil {
			tr.Eventf("solve", "columns=%d plan=%s mode=%s iters=%d solve_ms=%.3f",
				st.Columns, plan, st.Mode, st.Iterations, st.SolveDur.Seconds()*1e3)
		}
	}
}

// attach wires the metrics that depend on the constructed engine and
// cache: the solve hook, the rates-version gauge refresh, and
// counter/gauge views over the cache's own atomic counters. Both
// /metrics and /v1/stats read those SAME atomics, so the two endpoints
// cannot drift.
func (so *serverObs) attach(s *Server) {
	s.eng.SetSolveHook(so.solveHook)
	so.reg.OnGather(func() {
		pin := s.eng.Pin()
		so.ratesVersion.Set(float64(pin.Version()))
		so.generation.Set(float64(pin.Generation()))
	})
	if s.profiles != nil {
		so.attachProfile(s.profiles)
	}
	counters := []snapMetric[cache.StatsSnapshot]{
		{"afq_cache_vector_hits_total", "Term-vector cache hits.", func(st cache.StatsSnapshot) float64 { return float64(st.Vector.Hits) }},
		{"afq_cache_vector_misses_total", "Term-vector cache misses.", func(st cache.StatsSnapshot) float64 { return float64(st.Vector.Misses) }},
		{"afq_cache_vector_evictions_total", "Term-vector cache evictions.", func(st cache.StatsSnapshot) float64 { return float64(st.Vector.Evictions) }},
		{"afq_cache_result_hits_total", "Result cache hits.", func(st cache.StatsSnapshot) float64 { return float64(st.Result.Hits) }},
		{"afq_cache_result_misses_total", "Result cache misses.", func(st cache.StatsSnapshot) float64 { return float64(st.Result.Misses) }},
		{"afq_cache_result_evictions_total", "Result cache evictions.", func(st cache.StatsSnapshot) float64 { return float64(st.Result.Evictions) }},
		{"afq_cache_singleflight_dedup_total", "Calls answered by joining another caller's in-flight solve.", func(st cache.StatsSnapshot) float64 { return float64(st.SingleflightDedup) }},
		{"afq_cache_computes_total", "Kernel solves issued by the serving cache.", func(st cache.StatsSnapshot) float64 { return float64(st.Computes) }},
		{"afq_cache_warm_starts_total", "Cache term solves warm-started from the vector their term last had, under other rates.", func(st cache.StatsSnapshot) float64 { return float64(st.WarmStarts) }},
	}
	gauges := []snapMetric[cache.StatsSnapshot]{
		{"afq_cache_vector_bytes", "Term-vector cache resident bytes.", func(st cache.StatsSnapshot) float64 { return float64(st.Vector.Bytes) }},
		{"afq_cache_vector_entries", "Term-vector cache entries.", func(st cache.StatsSnapshot) float64 { return float64(st.Vector.Entries) }},
		{"afq_cache_vector_budget_bytes", "Term-vector cache byte budget.", func(st cache.StatsSnapshot) float64 { return float64(st.Vector.BudgetBytes) }},
		{"afq_cache_result_bytes", "Result cache resident bytes.", func(st cache.StatsSnapshot) float64 { return float64(st.Result.Bytes) }},
		{"afq_cache_result_entries", "Result cache entries.", func(st cache.StatsSnapshot) float64 { return float64(st.Result.Entries) }},
		{"afq_cache_result_budget_bytes", "Result cache byte budget.", func(st cache.StatsSnapshot) float64 { return float64(st.Result.BudgetBytes) }},
	}
	registerSnap(so.reg, s.cache.Stats, counters, gauges)
}

// snapMetric is one counter or gauge read off a stats snapshot.
type snapMetric[S any] struct {
	name, help string
	fn         func(st S) float64
}

// registerSnap registers counter and gauge views that each read a fresh
// snap() — the same snapshot /v1/stats serves, so /metrics and /stats
// cannot drift.
func registerSnap[S any](reg *obs.Registry, snap func() S, counters, gauges []snapMetric[S]) {
	for _, c := range counters {
		fn := c.fn
		reg.NewCounterFunc(c.name, c.help, func() float64 { return fn(snap()) })
	}
	for _, g := range gauges {
		fn := g.fn
		reg.NewGaugeFunc(g.name, g.help, func() float64 { return fn(snap()) })
	}
}

// attachProfile registers counter/gauge views over the personalization
// manager's atomic counters (the cache pattern, applied to the profile
// tier).
func (so *serverObs) attachProfile(pm *profile.Manager) {
	counters := []snapMetric[profile.Stats]{
		{"afq_profile_store_hits_total", "Profile reads served from the decoded-record LRU.", func(st profile.Stats) float64 { return float64(st.StoreHits) }},
		{"afq_profile_store_misses_total", "Profile reads that missed the LRU (durable store consulted).", func(st profile.Stats) float64 { return float64(st.StoreMisses) }},
		{"afq_profile_disk_loads_total", "Profile records decoded from the durable store.", func(st profile.Stats) float64 { return float64(st.DiskLoads) }},
		{"afq_profile_answer_hits_total", "Personalized answers served from their profile-scoped entry in the serving cache's result LRU.", func(st profile.Stats) float64 { return float64(st.AnswerHits) }},
		{"afq_profile_answer_misses_total", "Personalized queries whose profile-scoped result entry was absent: blended, or read through the global path.", func(st profile.Stats) float64 { return float64(st.AnswerMisses) }},
		{"afq_profile_trains_total", "Profile training rounds (profile-scoped reformulations).", func(st profile.Stats) float64 { return float64(st.Trains) }},
		{"afq_profile_combines_total", "Personalized answers computed (blended, or global for a profile with no usable mixture).", func(st profile.Stats) float64 { return float64(st.Combines) }},
		{"afq_profile_evictions_total", "Decoded profiles evicted from the profile LRU (answers are evicted by the serving cache's result LRU).", func(st profile.Stats) float64 { return float64(st.Evictions) }},
	}
	gauges := []snapMetric[profile.Stats]{
		{"afq_profile_store_bytes", "Resident decoded-profile bytes in the LRU.", func(st profile.Stats) float64 { return float64(st.StoreBytes) }},
		{"afq_profile_resident", "Decoded profiles resident in the LRU.", func(st profile.Stats) float64 { return float64(st.Resident) }},
		{"afq_profile_basis_terms", "Topic terms in the current generation's panel.", func(st profile.Stats) float64 { return float64(st.BasisTerms) }},
		{"afq_profile_basis_generation", "Corpus generation the current panel was selected from.", func(st profile.Stats) float64 { return float64(st.BasisGeneration) }},
	}
	registerSnap(so.reg, pm.Stats, counters, gauges)
}

// mountPprof wires the net/http/pprof handlers onto mux (behind the
// ObsOptions.Pprof flag — profiling endpoints are opt-in).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

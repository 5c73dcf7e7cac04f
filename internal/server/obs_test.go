package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/obs"
	"authorityflow/internal/rank"
)

// obsTestServer builds a server with the given extra options on the
// standard small fixture.
func obsTestServer(t *testing.T, extra ...Option) (*Server, *httptest.Server) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}}, extra...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// syncBuffer is a mutex-guarded buffer: the middleware writes its log
// line after the handler returns, which can race the client's read, so
// tests poll String() under the lock.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// scrapeMetrics fetches /metrics and returns sample name(+labels) →
// value plus the raw body.
func scrapeMetrics(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, string(raw)
}

// TestMetricsEndpoint drives three distinct queries (three misses)
// through a server and asserts the stated metric families show up in
// valid exposition with values consistent with the traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := obsTestServer(t)
	for _, q := range []string{"olap", "xml", "mining"} {
		mustGet(t, ts.URL+"/v1/query?q="+q+"&k=5", 200)
	}
	mustGet(t, ts.URL+"/v1/query", 400) // parse error
	mustGet(t, ts.URL+"/v1/healthz", 200)

	samples, raw := scrapeMetrics(t, ts.URL)
	if got := samples[`afq_http_requests_total{handler="/v1/query",code="200"}`]; got != 3 {
		t.Errorf("query 200 count = %g, want 3", got)
	}
	if got := samples[`afq_http_requests_total{handler="/v1/query",code="400"}`]; got != 1 {
		t.Errorf("query 400 count = %g, want 1", got)
	}
	if got := samples[`afq_http_request_seconds_count{handler="/v1/query"}`]; got != 4 {
		t.Errorf("query latency observations = %g, want 4", got)
	}
	// Kernel families: 3 cache misses → 3 solves, and the iteration
	// histogram/counter grew.
	if got := samples["afq_kernel_solves_total"]; got != 3 {
		t.Errorf("kernel solves = %g, want 3", got)
	}
	if got := samples["afq_kernel_iterations_count"]; got != 3 {
		t.Errorf("iteration histogram count = %g, want 3", got)
	}
	if samples["afq_kernel_iterations_total"] < 3 {
		t.Errorf("iterations_total = %g, want >= 3", samples["afq_kernel_iterations_total"])
	}
	if samples["afq_kernel_solve_seconds_count"] != 3 {
		t.Errorf("solve_seconds count = %g, want 3", samples["afq_kernel_solve_seconds_count"])
	}
	if got := samples[`afq_query_cache_outcome_total{source="computed"}`]; got != 3 {
		t.Errorf("computed outcomes = %g, want 3", got)
	}
	// Rates version gauge present; uptime positive.
	if _, ok := samples["afq_rates_version"]; !ok {
		t.Error("afq_rates_version missing")
	}
	if samples["afq_uptime_seconds"] <= 0 {
		t.Error("afq_uptime_seconds not positive")
	}
	// Histogram buckets must be cumulative: +Inf equals _count.
	if inf := samples[`afq_http_request_seconds_bucket{handler="/v1/query",le="+Inf"}`]; inf != samples[`afq_http_request_seconds_count{handler="/v1/query"}`] {
		t.Errorf("+Inf bucket %g != count", inf)
	}
	for _, fam := range []string{
		"afq_http_requests_total", "afq_http_request_seconds",
		"afq_http_slow_requests_total", "afq_http_inflight_requests",
		"afq_query_cache_outcome_total", "afq_kernel_solves_total",
		"afq_kernel_warm_solves_total", "afq_kernel_iterations",
		"afq_kernel_solve_seconds", "afq_kernel_iterations_total",
		"afq_kernel_plan_builds_total", "afq_kernel_plan_build_seconds",
		"afq_rates_version", "afq_uptime_seconds",
	} {
		if !strings.Contains(raw, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
}

// TestMetricsStatsAgree: /stats is re-backed by the registry, so the
// numbers it reports must exactly equal what /metrics exposes — for the
// HTTP counters, the kernel counters AND the cache counters (read from
// the same atomics).
func TestMetricsStatsAgree(t *testing.T) {
	_, ts := obsTestServer(t, WithCache(8<<20, 0))
	for i := 0; i < 4; i++ {
		mustGet(t, ts.URL+"/v1/query?q=olap&k=5", 200) // 1 miss + 3 result hits
	}
	mustGet(t, ts.URL+"/v1/query?q=xml&k=5", 200)

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("/v1/stats status = %d", code)
	}
	samples, _ := scrapeMetrics(t, ts.URL)

	if !st.CacheEnabled || st.Cache == nil {
		t.Fatal("cache stats missing")
	}
	pairs := []struct {
		name string
		stat float64
	}{
		{"afq_cache_result_hits_total", float64(st.Cache.Result.Hits)},
		{"afq_cache_result_misses_total", float64(st.Cache.Result.Misses)},
		{"afq_cache_vector_hits_total", float64(st.Cache.Vector.Hits)},
		{"afq_cache_vector_misses_total", float64(st.Cache.Vector.Misses)},
		{"afq_cache_computes_total", float64(st.Cache.Computes)},
		{"afq_cache_singleflight_dedup_total", float64(st.Cache.SingleflightDedup)},
		{"afq_cache_result_bytes", float64(st.Cache.Result.Bytes)},
		{"afq_cache_vector_bytes", float64(st.Cache.Vector.Bytes)},
		{"afq_kernel_solves_total", float64(st.Kernel.Solves)},
		{"afq_kernel_iterations_total", float64(st.Kernel.IterationsTotal)},
		{"afq_rates_version", float64(st.RatesVersion)},
	}
	for _, p := range pairs {
		if got, ok := samples[p.name]; !ok || got != p.stat {
			t.Errorf("%s: /metrics %g (present=%t) != /stats %g", p.name, got, ok, p.stat)
		}
	}
	// HTTP byHandler keys mirror the /metrics labels.
	if st.HTTP.ByHandler["/v1/query 200"] != 5 {
		t.Errorf("byHandler[/query 200] = %d, want 5", st.HTTP.ByHandler["/v1/query 200"])
	}
	if got := samples[`afq_http_requests_total{handler="/v1/query",code="200"}`]; got != 5 {
		t.Errorf("metrics /query 200 = %g, want 5", got)
	}
	// Cache outcome counter: 2 misses computed, 3 result hits.
	if got := samples[`afq_query_cache_outcome_total{source="computed"}`]; got != 2 {
		t.Errorf("computed outcomes = %g, want 2", got)
	}
	if got := samples[`afq_query_cache_outcome_total{source="result"}`]; got != 3 {
		t.Errorf("result outcomes = %g, want 3", got)
	}
	// Pre-created outcome children are visible at 0.
	if got, ok := samples[`afq_query_cache_outcome_total{source="term"}`]; !ok || got != 0 {
		t.Errorf("term outcome not pre-created at 0 (got %g, present=%t)", got, ok)
	}
}

// TestRequestIDOnResponses: every endpoint, success or error, carries
// X-Request-ID, and error payloads embed the same ID.
func TestRequestIDOnResponses(t *testing.T) {
	_, ts := obsTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/query?q=olap&k=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(obs.RequestIDHeader) == "" {
		t.Error("success response missing X-Request-ID")
	}

	resp, err = http.Get(ts.URL + "/v1/query") // 400: q required
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get(obs.RequestIDHeader)
	if id == "" {
		t.Fatal("error response missing X-Request-ID")
	}
	var payload ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("error payload not JSON: %v", err)
	}
	if payload.Error.Message == "" {
		t.Error("error payload missing error message")
	}
	if payload.Error.RequestID != id {
		t.Errorf("error payload requestId %q != header %q", payload.Error.RequestID, id)
	}

	// Caller-supplied ID round-trips into the error payload.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/query", nil)
	req.Header.Set(obs.RequestIDHeader, "my-trace-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var payload2 ErrorEnvelope
	if err := json.NewDecoder(resp2.Body).Decode(&payload2); err != nil {
		t.Fatalf("error payload not JSON: %v", err)
	}
	if payload2.Error.RequestID != "my-trace-42" {
		t.Errorf("caller ID not in error payload: %q", payload2.Error.RequestID)
	}
}

// TestHealthzUptime: /healthz reports a positive, growing uptime.
func TestHealthzUptime(t *testing.T) {
	_, ts := obsTestServer(t)
	var h1, h2 HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", &h1)
	time.Sleep(5 * time.Millisecond)
	getJSON(t, ts.URL+"/v1/healthz", &h2)
	if h1.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %g, want > 0", h1.UptimeSeconds)
	}
	if h2.UptimeSeconds <= h1.UptimeSeconds {
		t.Fatalf("uptime not growing: %g then %g", h1.UptimeSeconds, h2.UptimeSeconds)
	}
}

// TestSlowQueryLogServer: with a tiny threshold every query is slow and
// the log line must contain the pipeline span events; with the log off
// nothing is written.
func TestSlowQueryLogServer(t *testing.T) {
	var buf syncBuffer
	_, ts := obsTestServer(t, WithObservability(ObsOptions{
		SlowLog:       &buf,
		SlowThreshold: time.Nanosecond,
	}))
	mustGet(t, ts.URL+"/v1/query?q=olap&k=5", 200)

	if !waitFor(t, 2*time.Second, func() bool { return strings.TrimSpace(buf.String()) != "" }) {
		t.Fatal("no slow-query line with nanosecond threshold")
	}
	line := strings.TrimSpace(buf.String())
	first := strings.SplitN(line, "\n", 2)[0]
	var logged struct {
		Handler string `json:"handler"`
		ID      string `json:"id"`
		Spans   []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(first), &logged); err != nil {
		t.Fatalf("slow log not JSON: %v\n%s", err, first)
	}
	if logged.Handler != "/v1/query" || logged.ID == "" {
		t.Fatalf("slow log fields wrong: %s", first)
	}
	names := make([]string, len(logged.Spans))
	for i, sp := range logged.Spans {
		names[i] = sp.Name
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"parse", "solve", "render"} {
		if !strings.Contains(joined, want) {
			t.Errorf("slow log spans %v missing %q", names, want)
		}
	}
}

// TestPprofGating: /debug/pprof is 404 by default and mounted with the
// flag.
func TestPprofGating(t *testing.T) {
	_, off := obsTestServer(t)
	if code := statusOf(t, off.URL+"/debug/pprof/"); code != 404 {
		t.Errorf("pprof without flag: status = %d, want 404", code)
	}
	_, on := obsTestServer(t, WithObservability(ObsOptions{Pprof: true}))
	if code := statusOf(t, on.URL+"/debug/pprof/"); code != 200 {
		t.Errorf("pprof with flag: status = %d, want 200", code)
	}
	if code := statusOf(t, on.URL+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof cmdline: status = %d, want 200", code)
	}
}

// TestSharedRegistry: a caller-supplied registry receives the server's
// families (co-hosted exposition).
func TestSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := obsTestServer(t, WithObservability(ObsOptions{Registry: reg}))
	if s.Metrics() != reg {
		t.Fatal("server did not adopt the shared registry")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "afq_kernel_solves_total") {
		t.Fatal("shared registry missing server families")
	}
}

// ---- small helpers ----

func mustGet(t *testing.T, url string, wantCode int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status = %d, want %d", url, resp.StatusCode, wantCode)
	}
}

func statusOf(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestWarmSolvesCountDonatedStartsOnly: afq_kernel_warm_solves_total
// counts §6.2 warm starts — solves that began from a donated score
// vector — not the global-PageRank start every first query takes. N
// distinct queries with no publish in between leave it at 0; a
// reformulation (which publishes rates and re-solves from the previous
// scores) and the requery after it raise it.
func TestWarmSolvesCountDonatedStartsOnly(t *testing.T) {
	_, ts := obsTestServer(t, WithCache(8<<20, 0))
	for _, q := range []string{"olap", "xml", "mining", "query+optimization", "web+search", "xml+index"} {
		mustGet(t, ts.URL+"/v1/query?k=5&q="+q, 200)
	}
	samples, _ := scrapeMetrics(t, ts.URL)
	if solves := samples["afq_kernel_solves_total"]; solves < 6 {
		t.Fatalf("kernel solves = %g after six distinct queries, want at least 6", solves)
	}
	if warm := samples["afq_kernel_warm_solves_total"]; warm != 0 {
		t.Fatalf("warm solves = %g after distinct queries and no publish, want 0", warm)
	}

	var qa QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5", &qa); code != 200 || len(qa.Results) == 0 {
		t.Fatalf("/v1/query olap: status %d, %d results", code, len(qa.Results))
	}
	mustGet(t, ts.URL+"/v1/reformulate?q=olap&version=1&feedback="+strconv.FormatInt(qa.Results[0].Node, 10), 200)
	mustGet(t, ts.URL+"/v1/query?q=olap&k=7", 200)
	samples, _ = scrapeMetrics(t, ts.URL)
	if warm := samples["afq_kernel_warm_solves_total"]; warm == 0 {
		t.Fatal("warm solves = 0 after a reformulate and a requery, want > 0")
	}
}

// TestExplainObservability: /v1/explain feeds the afq_explain_*
// families (by mode and format, whole-subgraph size, clipped JSON
// bodies), /v1/stats mirrors them from the same metric objects, and
// the trace's explain event, like the audit's, says what the kernel
// built and how long each stage took. afq_explain_topology_total
// counts every route's explains by topology path, the audit's event
// says when it derived, a reformulate traces one event per feedback
// explain and one for its requery, and a count allocates nothing.
func TestExplainObservability(t *testing.T) {
	var slow syncBuffer
	s, ts := obsTestServer(t, WithObservability(ObsOptions{SlowLog: &slow, SlowThreshold: time.Nanosecond}))
	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=1", &q); code != 200 || len(q.Results) == 0 {
		t.Fatal("seed query failed")
	}
	url := ts.URL + "/v1/explain?q=olap&target=" + strconv.FormatInt(q.Results[0].Node, 10)
	var e ExplainResponse
	if code := getJSON(t, url, &e); code != 200 || e.TotalArcs <= e.Budget {
		t.Fatalf("explain: status %d, %d arcs at budget %d", code, e.TotalArcs, e.Budget)
	}
	mustGet(t, url+"&budget=1000&format=json", 200)
	mustGet(t, url+"&format=dot", 200)
	mustGet(t, url+"&mode=hub&format=html", 200)
	mustGet(t, url+"&format=xml", 400) // rejected before anything is counted

	samples, _ := scrapeMetrics(t, ts.URL)
	for name, want := range map[string]float64{
		`afq_explain_total{mode="authority",format="json"}`: 2,
		`afq_explain_total{mode="authority",format="dot"}`:  1,
		`afq_explain_total{mode="hub",format="html"}`:       1,
		`afq_explain_subgraph_arcs_count`:                   4,
		`afq_explain_truncated_total`:                       2, // the JSON bodies; dot and html are complete
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %g (present=%t), want %g", name, got, ok, want)
		}
	}
	if e.TotalArcs <= 1000 {
		t.Fatalf("fixture subgraph has %d arcs: budget=1000 does not clip it", e.TotalArcs)
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("/v1/stats status = %d", code)
	}
	if st.Explain.Total != 4 || st.Explain.Truncated != 2 || float64(st.Explain.SubgraphArcs) != samples["afq_explain_subgraph_arcs_sum"] ||
		st.Explain.SubgraphArcs < 3*int64(e.TotalArcs) {
		t.Errorf("/v1/stats explain block = %+v, /metrics arcs sum %g", st.Explain, samples["afq_explain_subgraph_arcs_sum"])
	}

	if !waitFor(t, 2*time.Second, func() bool { return strings.Contains(slow.String(), `"name":"explain"`) }) {
		t.Fatal("no explain span in the slow log")
	}
	want := "nodes=" + strconv.Itoa(e.TotalNodes) + " arcs=" + strconv.Itoa(e.TotalArcs) + " iters=" + strconv.Itoa(e.Iterations) + " topology="
	if log := slow.String(); !strings.Contains(log, want+"built build_ms=") || !strings.Contains(log, " adjust_ms=") {
		t.Errorf("explain span detail missing %q / adjust_ms= in:\n%s", want+"built build_ms=", log)
	}

	// The audit of the same target explains the same subgraph, on the
	// topology the first explain built, and says so in its own event.
	mustGet(t, strings.Replace(url, "/v1/explain", "/v1/audit", 1), 200)
	if !waitFor(t, 2*time.Second, func() bool { return strings.Contains(slow.String(), `"name":"audit"`) }) {
		t.Fatal("no audit event in the slow log")
	}
	log := slow.String()
	event := log[strings.Index(log, `"name":"audit"`):]
	if event = event[:strings.Index(event, "}")]; !strings.Contains(event, want+"reused build_ms=") || !strings.Contains(event, " adjust_ms=") {
		t.Errorf("audit event missing %q / adjust_ms=: %s", want+"reused build_ms=", event)
	}

	// With the decoded tier evicted the next audit derives the topology
	// from the target's ball and says so; the feedback explain of a
	// reformulate then reuses the topology the derive put back, and its
	// trace has one event for it, naming the target, and one for the
	// requery after the publish.
	s.eng.Pin().EvictDecodedTopologies()
	mustGet(t, strings.Replace(url, "/v1/explain", "/v1/audit", 1), 200)
	if !waitFor(t, 2*time.Second, func() bool { return strings.Count(slow.String(), `"name":"audit"`) == 2 }) {
		t.Fatal("no second audit event in the slow log")
	}
	log = slow.String()
	if event = log[strings.LastIndex(log, `"name":"audit"`):]; !strings.Contains(event[:strings.Index(event, "}")], want+"derived build_ms=") {
		t.Errorf("audit event after an eviction missing %q: %s", want+"derived build_ms=", event[:strings.Index(event, "}")])
	}
	mustGet(t, ts.URL+"/v1/reformulate?q=olap&feedback="+strconv.FormatInt(q.Results[0].Node, 10), 200)
	if !waitFor(t, 2*time.Second, func() bool { return strings.Contains(slow.String(), `"name":"requery"`) }) {
		t.Fatal("no requery event in the slow log")
	}
	log = slow.String()
	log = log[strings.LastIndex(log, `"name":"solve"`):]
	if feedback := `"name":"explain","offsetMs":`; strings.Count(log, feedback) != 1 {
		t.Errorf("reformulate of one feedback id traced %d explain events, want 1:\n%s", strings.Count(log, feedback), log)
	}
	if target := "target=" + strconv.FormatInt(q.Results[0].Node, 10) + " " + want + "reused build_ms="; !strings.Contains(log, target) {
		t.Errorf("reformulate trace missing %q:\n%s", target, log)
	}
	if !strings.Contains(log, `"name":"requery","offsetMs":`) || !strings.Contains(log, `"detail":"source=`) {
		t.Errorf("reformulate trace has no requery source= event:\n%s", log)
	}
	samples, _ = scrapeMetrics(t, ts.URL)
	for _, route := range []string{"explain", "audit", "reformulate"} {
		for path, want := range map[string]float64{
			"built":   map[string]float64{"explain": 2}[route], // the authority and hub keys
			"reused":  map[string]float64{"explain": 2, "audit": 1, "reformulate": 1}[route],
			"derived": map[string]float64{"audit": 1}[route],
		} {
			name := `afq_explain_topology_total{route="` + route + `",path="` + path + `"}`
			if got, ok := samples[name]; !ok || got != want {
				t.Errorf("%s = %g (present=%t), want %g", name, got, ok, want)
			}
		}
	}
	var sg core.Subgraph
	if allocs := testing.AllocsPerRun(100, func() { s.obs.countTopology("reformulate", &sg) }); allocs != 0 {
		t.Errorf("counting an explain's topology path allocates %v", allocs)
	}
}

// TestPlanObservability: coefficient plans are built by multi-column
// solves only, once per snapshot and direction, and say so in
// afq_kernel_plan_builds_total / _plan_build_seconds, in /v1/stats'
// kernel block (the same metric objects), and in the batch's solve
// trace event; a solve that builds nothing adds no allocation to the
// hook.
func TestPlanObservability(t *testing.T) {
	var slow syncBuffer
	s, ts := obsTestServer(t, WithCache(8<<20, 0), WithObservability(ObsOptions{SlowLog: &slow, SlowThreshold: time.Nanosecond}))
	builds := func() (authority, hub, count float64) {
		m, _ := scrapeMetrics(t, ts.URL)
		return m[`afq_kernel_plan_builds_total{direction="authority"}`], m[`afq_kernel_plan_builds_total{direction="hub"}`], m["afq_kernel_plan_build_seconds_count"]
	}
	batch := func(body string) {
		t.Helper()
		if code, _, raw := fetch(t, http.MethodPost, ts.URL+"/v1/query/batch", strings.NewReader(body)); code != 200 {
			t.Fatalf("batch status = %d (body %s)", code, raw)
		}
	}

	for _, q := range []string{"olap", "xml+index", "mining&mode=hub"} {
		mustGet(t, ts.URL+"/v1/query?k=5&q="+q, 200)
	}
	if a, h, n := builds(); a != 0 || h != 0 || n != 0 {
		t.Fatalf("plan builds after one-column solves only = %g/%g (%g timed), want none", a, h, n)
	}

	// The two-keyword items are assembled from their keywords' vectors:
	// the batch's one solve runs query, optimization, web, search and join.
	// The next batch's items find query and search resident and solve xml
	// and index.
	batch(`{"queries":[{"q":"query optimization"},{"q":"web search"},{"q":"join"}]}`)
	if a, h, n := builds(); a != 1 || h != 0 || n != 1 {
		t.Fatalf("plan builds after an authority batch = %g/%g (%g timed), want 1/0 (1)", a, h, n)
	}
	batch(`{"queries":[{"q":"xml query"},{"q":"index search"},{"q":"olap","mode":"hub"},{"q":"web","mode":"hub"}]}`)
	if a, h, n := builds(); a != 1 || h != 1 || n != 2 {
		t.Fatalf("plan builds after a mixed batch = %g/%g (%g timed), want 1/1 (2)", a, h, n)
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("/v1/stats status = %d", code)
	}
	samples, _ := scrapeMetrics(t, ts.URL)
	if st.Kernel.PlanBuilds["authority"] != 1 || st.Kernel.PlanBuilds["hub"] != 1 ||
		st.Kernel.PlanBuildSeconds <= 0 || st.Kernel.PlanBuildSeconds != samples["afq_kernel_plan_build_seconds_sum"] {
		t.Errorf("/v1/stats kernel block = %+v, /metrics build seconds %g", st.Kernel, samples["afq_kernel_plan_build_seconds_sum"])
	}

	if !waitFor(t, 2*time.Second, func() bool { return strings.Count(slow.String(), " plan=") >= 3 }) {
		t.Fatalf("want three multi-column solve events in the slow log:\n%s", slow.String())
	}
	log := slow.String()
	for _, want := range []string{"columns=5 plan=built mode=authority", "columns=2 plan=reused mode=authority", "columns=2 plan=built mode=hub"} {
		if !strings.Contains(log, want) {
			t.Errorf("slow log missing solve event %q:\n%s", want, log)
		}
	}

	hook := s.obs.solveHook
	stats := core.SolveStats{Columns: 8, Iterations: 9, Converged: true, Mode: core.ModeAuthority, Ctx: context.Background()}
	if allocs := testing.AllocsPerRun(100, func() { hook(stats) }); allocs != 0 {
		t.Errorf("solve hook allocates %v per multi-column solve that found its plan built", allocs)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// fetch issues a request and returns status, headers and raw body.
func fetch(t *testing.T, method, url string, body io.Reader) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// TestRouteTable: the mounted surface is the routes table plus
// /metrics (and /debug/pprof/ on request) — every pattern is versioned,
// the retired unversioned paths are the mux's plain 404, and a server
// built with no options at all serves through the cache.
func TestRouteTable(t *testing.T) {
	_, ts := testServer(t) // server.New(ds, cfg), no options
	for _, rt := range routes {
		if !strings.HasPrefix(rt.pattern, "/v1/") {
			t.Errorf("mounted pattern %q is not under /v1/", rt.pattern)
		}
	}
	probes := []string{"/query?q=olap", "/explain?q=olap&target=0", "/reformulate?q=olap&feedback=0",
		"/rates", "/healthz", "/stats", "/", "/v1", "/v1/", "/v2/query?q=olap", "/debug/pprof/"}
	for _, path := range probes {
		code, hdr, raw := fetch(t, http.MethodGet, ts.URL+path, nil)
		if code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404: %s", path, code, raw)
		}
		if hdr.Get("Deprecation") != "" || hdr.Get("Sunset") != "" {
			t.Errorf("GET %s still advertises the retired alias headers", path)
		}
	}
	for _, rt := range routes {
		if code, _, _ := fetch(t, http.MethodGet, ts.URL+rt.pattern, nil); code == http.StatusNotFound {
			t.Errorf("GET %s = 404, want the route mounted", rt.pattern)
		}
	}
	if code, _, _ := fetch(t, http.MethodGet, ts.URL+"/metrics", nil); code != 200 {
		t.Errorf("/metrics = %d", code)
	}

	var first, second QueryResponse
	getJSON(t, ts.URL+"/v1/query?q=olap", &first)
	getJSON(t, ts.URL+"/v1/query?q=olap", &second)
	if first.Cache != "computed" || second.Cache != "result" {
		t.Errorf("option-less server answered cache=%q then %q, want computed then result", first.Cache, second.Cache)
	}
}

// TestContentTypeAudit is the satellite-3 sweep: every JSON-producing
// response — success and error — carries
// application/json (set BEFORE the status line via the shared
// WriteJSON), the explain export formats carry their own types, and
// /metrics serves the Prometheus text exposition.
func TestContentTypeAudit(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		method   string
		path     string
		body     string
		wantCode int
		wantCT   string
	}{
		{"GET", "/v1/query?q=olap&k=3", "", 200, "application/json"},
		{"GET", "/v1/query", "", 400, "application/json"},
		{"POST", "/v1/query/batch", `{"queries":[{"q":"olap"}]}`, 200, "application/json"},
		{"GET", "/v1/query/batch", "", 405, "application/json"},
		{"POST", "/v1/query/batch", `{`, 400, "application/json"},
		{"GET", "/v1/reformulate?q=olap&feedback=0&version=999999", "", 409, "application/json"},
		{"GET", "/v1/rates", "", 200, "application/json"},
		{"GET", "/v1/healthz", "", 200, "application/json"},
		{"GET", "/v1/stats", "", 200, "application/json"},
		{"GET", "/v1/explain?q=olap&target=0", "", 200, "application/json"},
		{"GET", "/v1/explain?q=olap&target=0&format=html", "", 200, "text/html"},
		{"GET", "/v1/explain?q=olap&target=0&format=dot", "", 200, "text/vnd.graphviz"},
		{"GET", "/metrics", "", 200, "text/plain"},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		code, hdr, raw := fetch(t, tc.method, ts.URL+tc.path, body)
		if code != tc.wantCode {
			t.Errorf("%s %s: status = %d, want %d (body %s)", tc.method, tc.path, code, tc.wantCode, raw)
			continue
		}
		if ct := hdr.Get("Content-Type"); !strings.Contains(ct, tc.wantCT) {
			t.Errorf("%s %s: Content-Type = %q, want %q", tc.method, tc.path, ct, tc.wantCT)
		}
	}
}

// decodeEnvelope decodes a v1 error body, failing the test on any
// deviation from the envelope shape.
func decodeEnvelope(t *testing.T, raw []byte) ErrorEnvelope {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var env ErrorEnvelope
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("body %s is not the v1 envelope: %v", raw, err)
	}
	return env
}

// TestV1ErrorEnvelope: every v1 error is the uniform envelope with a
// stable code and the request ID.
func TestV1ErrorEnvelope(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
		wantMsg  string
	}{
		{"missing q", "GET", "/v1/query", "", 400, CodeInvalidArgument, "q parameter required"},
		{"unindexable q", "GET", "/v1/query?q=%21%21", "", 400, CodeInvalidArgument, "no indexable terms"},
		{"bad k", "GET", "/v1/query?q=olap&k=0", "", 400, CodeInvalidArgument, "k must be"},
		{"bad target", "GET", "/v1/explain?q=olap&target=-1", "", 400, CodeInvalidArgument, "out of range"},
		{"batch wrong method", "GET", "/v1/query/batch", "", 405, CodeInvalidArgument, "POST required"},
		{"batch bad json", "POST", "/v1/query/batch", "{", 400, CodeInvalidArgument, "bad JSON"},
		{"batch empty", "POST", "/v1/query/batch", `{"queries":[]}`, 400, CodeInvalidArgument, "queries required"},
		{"batch item q", "POST", "/v1/query/batch", `{"queries":[{"q":"olap"},{"q":" "}]}`, 400, CodeInvalidArgument, "queries[1]: q required"},
		{"batch item k", "POST", "/v1/query/batch", `{"queries":[{"q":"olap","k":5000}]}`, 400, CodeInvalidArgument, "queries[0]: k must be"},
		{"batch item unindexable", "POST", "/v1/query/batch", `{"queries":[{"q":"!!,."}]}`, 400, CodeInvalidArgument, "queries[0]: q contains no indexable terms"},
		{"bad timeout header", "GET", "/v1/query?q=olap", "", 400, CodeInvalidArgument, timeoutHeader},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "bad timeout header" {
				req.Header.Set(timeoutHeader, "soon")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantCode, raw)
			}
			env := decodeEnvelope(t, raw)
			if env.Error.Code != tc.wantErr {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantErr)
			}
			if !strings.Contains(env.Error.Message, tc.wantMsg) {
				t.Errorf("message %q does not mention %q", env.Error.Message, tc.wantMsg)
			}
			if env.Error.RequestID == "" {
				t.Error("envelope lacks requestId")
			}
		})
	}
	// The batch 405 must advertise the allowed method.
	_, hdr, _ := fetch(t, http.MethodGet, ts.URL+"/v1/query/batch", nil)
	if got := hdr.Get("Allow"); got != http.MethodPost {
		t.Errorf("405 Allow = %q, want POST", got)
	}
}

// TestV1ReformulateConflictEnvelope: the optimistic-concurrency 409
// answers with the envelope PLUS the winning rates version.
func TestV1ReformulateConflictEnvelope(t *testing.T) {
	s, ts := testServer(t)
	cur := s.Engine().RatesVersion()
	code, _, raw := fetch(t, http.MethodGet,
		ts.URL+"/v1/reformulate?q=olap&feedback=0&version=999999", nil)
	if code != http.StatusConflict {
		t.Fatalf("status = %d, want 409 (body %s)", code, raw)
	}
	var env ConflictEnvelope
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("body %s is not ConflictEnvelope: %v", raw, err)
	}
	if env.Error.Code != CodeVersionConflict {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeVersionConflict)
	}
	if env.Version != cur {
		t.Errorf("version = %d, want current %d", env.Version, cur)
	}
	if env.Error.RequestID == "" {
		t.Error("conflict envelope lacks requestId")
	}
}

// TestV1ShedCode: a saturated /v1 route sheds with the envelope code
// "shed".
func TestV1ShedCode(t *testing.T) {
	var slow atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := admissionServer(t,
		AdmissionOptions{MaxInflight: 1, QueueWait: 0},
		slowRankOptions(&slow, started, release))
	s.Engine().GlobalRank()
	slow.Store(true)

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		fetch(t, http.MethodGet, ts.URL+"/v1/query?q=olap", nil)
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking solve never started")
	}

	code, hdr, raw := fetch(t, http.MethodGet, ts.URL+"/v1/query?q=xml", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", code, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if env := decodeEnvelope(t, raw); env.Error.Code != CodeShed {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeShed)
	}
	close(release)
	<-blockerDone
}

// TestV1DeadlineCode: a /v1 solve that outlives the request budget is
// answered 504 with the envelope code "deadline".
func TestV1DeadlineCode(t *testing.T) {
	var slow atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	s, ts := admissionServer(t,
		AdmissionOptions{QueryTimeout: 50 * time.Millisecond},
		slowRankOptions(&slow, started, release))
	s.Engine().GlobalRank()
	slow.Store(true)

	code, _, raw := fetch(t, http.MethodGet, ts.URL+"/v1/query?q=olap", nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", code, raw)
	}
	if env := decodeEnvelope(t, raw); env.Error.Code != CodeDeadline {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeDeadline)
	}
}

// batchTestServer builds a cached server over the shared fixture.
func batchTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}},
		WithCache(8<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestQueryBatchV1 is the PR-5 acceptance scenario: a cold 16-query
// batch (8 unique terms, each twice) against a cached server performs
// at most ⌈16/BlockSize⌉ kernel executions — asserted via the
// afq_kernel_solves_total delta — and every answer is identical to
// what the corresponding single /v1/query returns on an identically
// seeded twin server.
func TestQueryBatchV1(t *testing.T) {
	s, ts := batchTestServer(t)
	_, single := batchTestServer(t) // identical twin for the reference answers

	unique := []string{"olap", "xml", "mining", "query", "index", "search", "web", "join"}
	var req BatchQueryRequest
	for _, tm := range append(append([]string(nil), unique...), unique...) {
		req.Queries = append(req.Queries, BatchQueryItem{Q: tm, K: 10})
	}
	if len(req.Queries) != 16 {
		t.Fatal("want a 16-query batch")
	}

	// Force the once-only warm-start solve out of the delta (it does not
	// route through the solve hook, but be explicit about the baseline).
	s.Engine().GlobalRank()
	before, _ := scrapeMetrics(t, ts.URL)

	body, _ := json.Marshal(req)
	code, _, raw := fetch(t, http.MethodPost, ts.URL+"/v1/query/batch", bytes.NewReader(body))
	if code != 200 {
		t.Fatalf("batch status = %d (body %s)", code, raw)
	}
	var resp BatchQueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != len(req.Queries) {
		t.Fatalf("answers = %d, want %d", len(resp.Answers), len(req.Queries))
	}

	after, _ := scrapeMetrics(t, ts.URL)
	delta := after["afq_kernel_solves_total"] - before["afq_kernel_solves_total"]
	bs := core.DefaultBlockSize
	maxSolves := float64((len(req.Queries) + bs - 1) / bs)
	if delta <= 0 || delta > maxSolves {
		t.Errorf("kernel solves for the batch = %g, want in (0, %g] (BlockSize %d)",
			delta, maxSolves, bs)
	}

	// Per-answer equality with the single /v1/query path, bit-for-bit on
	// the scores.
	for i, item := range req.Queries {
		var want QueryResponse
		if code := getJSON(t, single.URL+"/v1/query?q="+item.Q+"&k=10", &want); code != 200 {
			t.Fatalf("single query %q status = %d", item.Q, code)
		}
		got := resp.Answers[i]
		if got.Version != resp.Version {
			t.Errorf("answer %d version %d != batch version %d", i, got.Version, resp.Version)
		}
		if got.Query != want.Query || got.BaseSet != want.BaseSet ||
			got.Iterations != want.Iterations || got.Version != want.Version {
			t.Errorf("answer %d metadata differs: got %+v, want %+v", i, got, want)
			continue
		}
		if len(got.Results) != len(want.Results) {
			t.Errorf("answer %d: %d results, want %d", i, len(got.Results), len(want.Results))
			continue
		}
		for j := range want.Results {
			w, g := want.Results[j], got.Results[j]
			if w.Node != g.Node || w.InBase != g.InBase || w.Display != g.Display ||
				math.Float64bits(w.Score) != math.Float64bits(g.Score) {
				t.Errorf("answer %d result %d differs: got %+v, want %+v", i, j, g, w)
			}
		}
	}

	// A repeat batch is served entirely from the result cache: zero new
	// kernel solves, every answer marked "result".
	code, _, raw = fetch(t, http.MethodPost, ts.URL+"/v1/query/batch", bytes.NewReader(body))
	if code != 200 {
		t.Fatalf("repeat batch status = %d", code)
	}
	var resp2 BatchQueryResponse
	if err := json.Unmarshal(raw, &resp2); err != nil {
		t.Fatal(err)
	}
	for i, a := range resp2.Answers {
		if a.Cache != "result" {
			t.Errorf("repeat answer %d cache = %q, want result", i, a.Cache)
		}
	}
	final, _ := scrapeMetrics(t, ts.URL)
	if d := final["afq_kernel_solves_total"] - after["afq_kernel_solves_total"]; d != 0 {
		t.Errorf("repeat batch ran %g kernel solves, want 0", d)
	}
}

// TestQueryBatchUncached: batch answers — the first computed, the
// in-batch repeat deduplicated — match a direct core.Pinned.Solve +
// TopK, the uncached reference: bit for bit, except the multi-keyword
// item, which is assembled from its keywords' vectors and owes the
// solve ≤1e-12 (DESIGN.md §6) — the server runs at a threshold tight
// enough for that class.
func TestQueryBatchUncached(t *testing.T) {
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: rank.Options{Threshold: 1e-14, MaxIters: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	req := BatchQueryRequest{Queries: []BatchQueryItem{
		{Q: "olap", K: 5}, {Q: "xml mining", K: 3}, {Q: "olap", K: 5},
	}}
	body, _ := json.Marshal(req)
	code, _, raw := fetch(t, http.MethodPost, ts.URL+"/v1/query/batch", bytes.NewReader(body))
	if code != 200 {
		t.Fatalf("status = %d (body %s)", code, raw)
	}
	var resp BatchQueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	for i, item := range req.Queries {
		q := ir.ParseQuery(item.Q)
		ref := rankWith(t, s, q)
		want := ref.TopK(item.K)
		got := resp.Answers[i]
		if got.Query != q.String() || got.BaseSet != len(ref.Base) || len(got.Results) != len(want) {
			t.Errorf("answer %d differs: got %+v, want query %s base %d results %d", i, got, q, len(ref.Base), len(want))
			continue
		}
		for j := range want {
			g := got.Results[j]
			same := g.Node == int64(want[j].Node) && math.Float64bits(want[j].Score) == math.Float64bits(g.Score)
			if q.Len() > 1 {
				// Nodes whose scores tie to 1e-12 may rank either way round.
				same = got.Cache == cache.SourceTerm && math.Abs(g.Score-want[j].Score) <= 1e-12 && math.Abs(g.Score-ref.Scores[g.Node]) <= 1e-12
			}
			if !same {
				t.Errorf("answer %d (cache %q) result %d differs: got %+v, want %+v", i, got.Cache, j, g, want[j])
			}
		}
	}
}

// TestClientV1 drives the client's executor end-to-end against a live
// server: the endpoints the router reaches, the error decode, and the
// conflict fast-path.
func TestClientV1(t *testing.T) {
	s, ts := batchTestServer(t)
	c := NewClient(ts.URL+"/", nil, 0) // trailing slash must normalize

	var h HealthResponse
	if err := call(c, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Nodes != s.eng.Pin().Corpus().Graph().NumNodes() || !h.CacheEnabled {
		t.Errorf("health = %+v", h)
	}

	var rts RatesResponse
	if err := call(c, http.MethodGet, "/v1/rates", nil, &rts); err != nil {
		t.Fatal(err)
	}
	if rts.Version != s.Engine().RatesVersion() || len(rts.Vector) == 0 {
		t.Errorf("rates = %+v", rts)
	}

	var q QueryResponse
	if err := call(c, http.MethodGet, "/v1/query?q=olap&k=5", nil, &q); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Query, "olap") || len(q.Results) == 0 || len(q.Results) > 5 {
		t.Errorf("query = %+v", q)
	}

	var batch BatchQueryResponse
	if err := call(c, http.MethodPost, "/v1/query/batch", BatchQueryRequest{Queries: []BatchQueryItem{
		{Q: "olap", K: 5}, {Q: "xml"},
	}}, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Answers) != 2 || batch.Version != s.Engine().RatesVersion() {
		t.Errorf("batch = %+v", batch)
	}
	if math.Float64bits(batch.Answers[0].Results[0].Score) != math.Float64bits(q.Results[0].Score) {
		t.Error("batched olap differs from single olap")
	}

	// Error decode: the envelope becomes a typed *APIError.
	if err := call(c, http.MethodGet, "/v1/query?q=++&k=5", nil, &q); err == nil {
		t.Fatal("blank query should fail")
	} else if apiErr, ok := err.(*APIError); !ok {
		t.Fatalf("error type %T, want *APIError", err)
	} else if apiErr.Status != 400 || apiErr.Code != CodeInvalidArgument ||
		apiErr.RequestID == "" || apiErr.IsConflict() {
		t.Errorf("apiErr = %+v", apiErr)
	} else if !strings.Contains(apiErr.Error(), CodeInvalidArgument) {
		t.Errorf("Error() = %q lacks the code", apiErr.Error())
	}

	// Conflict decode: stale version token → IsConflict with the winning
	// version attached.
	var pub RatesResponse
	if err := call(c, http.MethodPost, "/v1/rates", RatesPublishRequest{Vector: rts.Vector, IfVersion: 999999}, &pub); err == nil {
		t.Fatal("stale version should conflict")
	} else if apiErr, ok := err.(*APIError); !ok || !apiErr.IsConflict() {
		t.Fatalf("conflict error = %#v, want IsConflict", err)
	} else if apiErr.Version != s.Engine().RatesVersion() {
		t.Errorf("conflict version = %d, want %d", apiErr.Version, s.Engine().RatesVersion())
	}

	// A real publish round-trips and bumps the version.
	before := s.Engine().RatesVersion()
	if err := call(c, http.MethodPost, "/v1/rates", RatesPublishRequest{Vector: rts.Vector, IfVersion: before}, &pub); err != nil {
		t.Fatal(err)
	}
	if pub.Version <= before {
		t.Errorf("publish version = %d, want > %d", pub.Version, before)
	}
}

// TestBatchLimitAndBodyCap: oversize batches and oversize bodies are
// rejected 400 before any kernel work.
func TestBatchLimitAndBodyCap(t *testing.T) {
	_, ts := testServer(t)
	var req BatchQueryRequest
	for i := 0; i <= MaxBatchQueries; i++ {
		req.Queries = append(req.Queries, BatchQueryItem{Q: "olap"})
	}
	body, _ := json.Marshal(req)
	code, _, raw := fetch(t, http.MethodPost, ts.URL+"/v1/query/batch", bytes.NewReader(body))
	if code != 400 {
		t.Fatalf("oversize batch status = %d (body %s)", code, raw)
	}
	if env := decodeEnvelope(t, raw); !strings.Contains(env.Error.Message, "batch limit") {
		t.Errorf("message %q does not mention the batch limit", env.Error.Message)
	}

	huge := strings.NewReader(`{"queries":[{"q":"` + strings.Repeat("x", maxBatchBody+16) + `"}]}`)
	code, _, raw = fetch(t, http.MethodPost, ts.URL+"/v1/query/batch", huge)
	if code != 400 {
		t.Fatalf("huge body status = %d", code)
	}
	if env := decodeEnvelope(t, raw); !strings.Contains(env.Error.Message, "bytes") {
		t.Errorf("message %q does not mention the byte cap", env.Error.Message)
	}
}

// TestFeedbackLimit: a reformulate of MaxFeedback ids is answered; one
// more id is the 400 naming the limit, before any kernel work.
func TestFeedbackLimit(t *testing.T) {
	s, ts := testServer(t)
	ids := make([]string, MaxFeedback+1)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	url := ts.URL + "/v1/reformulate?q=olap&feedback="
	if code, _, raw := fetch(t, http.MethodGet, url+strings.Join(ids[:MaxFeedback], ","), nil); code != 200 {
		t.Fatalf("reformulate of %d feedback ids: status %d (body %s)", MaxFeedback, code, raw)
	}
	version := s.Engine().RatesVersion()
	code, _, raw := fetch(t, http.MethodGet, url+strings.Join(ids, ","), nil)
	if code != 400 {
		t.Fatalf("reformulate of %d feedback ids: status %d (body %s)", len(ids), code, raw)
	}
	want := strconv.Itoa(len(ids)) + " feedback ids exceeds the feedback limit of " + strconv.Itoa(MaxFeedback)
	if env := decodeEnvelope(t, raw); env.Error.Code != CodeInvalidArgument || env.Error.Message != want {
		t.Errorf("oversize feedback error = %+v, want %s %q", env.Error, CodeInvalidArgument, want)
	}
	if s.Engine().RatesVersion() != version {
		t.Error("a rejected reformulate published rates")
	}
}

package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/obs"
	"authorityflow/internal/rank"
	"authorityflow/internal/server"
	"authorityflow/internal/storage"
)

// fleet is a test topology: n identically-seeded replicas behind one
// router. Identically-seeded replicas serve bit-identical corpora, so
// any replica's answer at a given (generation, ratesVersion) is THE
// fleet answer — which is exactly the property the router must
// preserve.
type fleet struct {
	rt       *Router
	front    *httptest.Server // the router's own HTTP face
	servers  []*server.Server
	backends []*httptest.Server
	urls     []string
	swapDir  string
}

// newFleet boots n replicas (scale 0.02, seed 4, swap-enabled with a
// shared "next.snap") and a router over them with the background
// health loop disabled — tests drive CheckNow explicitly so sweeps
// happen at deterministic points. Byte-identity assertions compare
// bodies as the get/postJSON helpers return them: free of the
// cache-provenance field, which legitimately differs between a first
// ask ("computed") and a repeat ("result").
func newFleet(t testing.TB, n int) *fleet {
	t.Helper()
	dir := t.TempDir()
	writeSnapshot(t, dir, "next.snap", 0.015, 9)

	f := &fleet{swapDir: dir}
	for i := 0; i < n; i++ {
		cfg := datagen.DBLPTopConfig().Scale(0.02)
		cfg.Seed = 4
		ds, err := datagen.GenerateDBLP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}}, server.WithSwapDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, s)
		f.backends = append(f.backends, ts)
		f.urls = append(f.urls, ts.URL)
	}
	rt, err := New(f.urls, Options{
		Timeout:        10 * time.Second,
		HealthInterval: -1, // tests call CheckNow
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	f.rt = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(f.front.Close)
	return f
}

func writeSnapshot(t testing.TB, dir, name string, scale float64, seed int64) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(scale)
	cfg.Seed = seed
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteSnapshotFile(filepath.Join(dir, name), ds, eng.Pin().Corpus().Index()); err != nil {
		t.Fatal(err)
	}
}

// provenance matches the "cache" member of a rendered query answer
// (bodies are compact; a snippet's own quotes are escaped, so only the
// field itself can match).
var provenance = regexp.MustCompile(`"cache":"[a-z]+",`)

// readBody returns resp's status and its body minus provenance members.
func readBody(t testing.TB, resp *http.Response) (int, []byte) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, provenance.ReplaceAll(body, nil)
}

// get fetches a URL and returns status + body.
func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

func postJSON(t testing.TB, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

// TestRendezvousProperties pins the routing function: deterministic,
// order/duplication-insensitive via the canonical key, and actually
// spreading keys across the fleet.
func TestRendezvousProperties(t *testing.T) {
	f := newFleet(t, 4)
	rt := f.rt

	if routeKey("OLAP  mining olap") != routeKey("mining OLAP") {
		t.Error("route key must canonicalize case, order and duplicates")
	}

	terms := []string{"olap", "xml", "mining", "query", "index", "search", "web", "join",
		"graph", "rank", "cache", "stream", "tree", "hash", "sort", "scan"}
	owners := map[string]int{}
	for _, tm := range terms {
		r1 := rt.rendezvousRank(routeKey(tm))
		r2 := rt.rendezvousRank(routeKey(tm))
		for i := range r1 {
			if r1[i].url != r2[i].url {
				t.Fatalf("rendezvous order for %q not deterministic", tm)
			}
		}
		owners[r1[0].url]++
	}
	if len(owners) < 2 {
		t.Errorf("16 keys all landed on one replica: %v", owners)
	}
}

// TestSingleQueryByteIdentical is the core proxy guarantee: the
// router's /v1/query answer is byte-for-byte what the owning replica
// says directly.
func TestSingleQueryByteIdentical(t *testing.T) {
	f := newFleet(t, 2)

	for _, q := range []string{"olap", "xml", "mining", "olap+xml"} {
		path := "/v1/query?q=" + q + "&k=10"
		viaRouter, routed := get(t, f.front.URL+path)
		if viaRouter != 200 {
			t.Fatalf("router query %q = %d: %s", q, viaRouter, routed)
		}
		owner := f.rt.rendezvousRank(routeKey(q))[0]
		direct, want := get(t, owner.url+path)
		if direct != 200 {
			t.Fatalf("direct query %q = %d", q, direct)
		}
		if !bytes.Equal(routed, want) {
			t.Errorf("query %q: routed body differs from owner's direct answer\nrouted: %s\ndirect: %s", q, routed, want)
		}
	}

	// /v1/explain proxies the same way.
	var qr server.QueryResponse
	_, body := get(t, f.front.URL+"/v1/query?q=olap&k=3")
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("/v1/explain?q=olap&target=%d", qr.Results[0].Node)
	code, routed := get(t, f.front.URL+path)
	if code != 200 {
		t.Fatalf("router explain = %d: %s", code, routed)
	}
	owner := f.rt.rendezvousRank(routeKey("olap"))[0]
	_, want := get(t, owner.url+path)
	if !bytes.Equal(routed, want) {
		t.Error("routed explain body differs from owner's direct answer")
	}
}

// TestBatchSplitMerge: a panel through the router splits across
// replicas, merges in request order, and every answer is byte-identical
// (after the shared encoding) to one replica's direct batch answer for
// the same panel at the same version.
func TestBatchSplitMerge(t *testing.T) {
	f := newFleet(t, 2)

	var req server.BatchQueryRequest
	terms := []string{"olap", "xml", "mining", "query", "index", "search", "web", "join"}
	for _, tm := range terms {
		req.Queries = append(req.Queries, server.BatchQueryItem{Q: tm, K: 10})
	}
	code, routed := postJSON(t, f.front.URL+"/v1/query/batch", req)
	if code != 200 {
		t.Fatalf("router batch = %d: %s", code, routed)
	}
	var got server.BatchQueryResponse
	if err := json.Unmarshal(routed, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(terms) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(terms))
	}

	// Replicas are identical twins, so replica 0's direct batch answer is
	// the reference for the whole panel.
	codeD, direct := postJSON(t, f.urls[0]+"/v1/query/batch", req)
	if codeD != 200 {
		t.Fatalf("direct batch = %d", codeD)
	}
	if !bytes.Equal(routed, direct) {
		t.Errorf("merged batch body differs from a single replica's direct answer\nrouted: %.200s\ndirect: %.200s", routed, direct)
	}

	// The fan-out actually used more than one replica.
	if groups := metricValue(t, f.rt, "afq_router_batch_groups_count"); groups < 1 {
		t.Error("batch fan-out not recorded")
	}
}

// TestBatchValidation: the router rejects malformed panels itself,
// with indices referring to the CLIENT's item positions and a body
// byte-equal to what a replica answers when asked directly (item rules
// live once, in server.DecodeBatch).
func TestBatchValidation(t *testing.T) {
	f := newFleet(t, 2)
	postRaw := func(url string, b []byte) (int, []byte) {
		t.Helper()
		hr, err := http.NewRequest(http.MethodPost, url+"/v1/query/batch", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		// One request ID on both sides: the envelope echoes it.
		hr.Header.Set(obs.RequestIDHeader, "batch-validation")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		return readBody(t, resp)
	}
	post := func(url string, req server.BatchQueryRequest) (int, []byte) {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return postRaw(url, b)
	}
	cases := []struct {
		req  server.BatchQueryRequest
		want string
	}{
		{server.BatchQueryRequest{}, "queries required"},
		{server.BatchQueryRequest{Queries: []server.BatchQueryItem{{Q: "olap"}, {Q: " "}}}, "queries[1]: q required"},
		{server.BatchQueryRequest{Queries: []server.BatchQueryItem{{Q: "olap", K: 2000}}}, "queries[0]: k must be in 1..1000"},
		{server.BatchQueryRequest{Queries: []server.BatchQueryItem{{Q: "!!"}}}, "queries[0]: q contains no indexable terms"},
		{server.BatchQueryRequest{Queries: []server.BatchQueryItem{{Q: "olap"}, {Q: "xml"}, {Q: "olap", Mode: "sideways"}}},
			"queries[2]: mode must be one of authority, hub"},
		{server.BatchQueryRequest{Queries: []server.BatchQueryItem{{Q: "olap"}, {Q: "olap", Mode: "hub", Budget: 9999}}},
			"queries[1]: budget must be an integer in 0..1000"},
	}
	for _, tc := range cases {
		code, body := post(f.front.URL, tc.req)
		if code != 400 {
			t.Fatalf("batch %v = %d, want 400", tc.req, code)
		}
		var env server.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Message != tc.want {
			t.Errorf("message = %q, want %q", env.Error.Message, tc.want)
		}
		if env.Error.Code != server.CodeInvalidArgument {
			t.Errorf("code = %q, want %q", env.Error.Code, server.CodeInvalidArgument)
		}
		if codeD, direct := post(f.urls[0], tc.req); codeD != code || !bytes.Equal(body, direct) {
			t.Errorf("%q: routed rejection differs from a replica's\nrouted: %d %s\ndirect: %d %s",
				tc.want, code, body, codeD, direct)
		}
	}

	// The envelope's own rules (server.DecodeBatch) are the replicas'
	// too: same status, same bytes.
	tooMany := server.BatchQueryRequest{Queries: make([]server.BatchQueryItem, server.MaxBatchQueries+1)}
	for i := range tooMany.Queries {
		tooMany.Queries[i].Q = "olap"
	}
	tooManyBody, err := json.Marshal(tooMany)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body       []byte
		wantPrefix string
	}{
		{[]byte(`{"queries":[{"q":"olap"}`), "bad JSON body: "},
		{[]byte(`{"queries":[]}`), "queries required"},
		{tooManyBody, "65 queries exceeds the batch limit of 64"},
	} {
		code, body := postRaw(f.front.URL, tc.body)
		var env server.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if code != 400 || env.Error.Code != server.CodeInvalidArgument || !strings.HasPrefix(env.Error.Message, tc.wantPrefix) {
			t.Errorf("envelope %.30q = %d %s, want 400 %s %q…", tc.body, code, body, server.CodeInvalidArgument, tc.wantPrefix)
		}
		if codeD, direct := postRaw(f.urls[0], tc.body); codeD != code || !bytes.Equal(body, direct) {
			t.Errorf("%q: routed rejection differs from a replica's\nrouted: %d %s\ndirect: %d %s",
				tc.wantPrefix, code, body, codeD, direct)
		}
	}
}

// TestFailover: killing a replica moves its keys to the survivor; with
// every replica dead the router sheds 503.
func TestFailover(t *testing.T) {
	f := newFleet(t, 2)

	// Kill the replica that owns the term, so the kill provably moves
	// traffic. (Which replica that is depends on the test servers'
	// ports.)
	victimTerm := "olap"
	victim := f.rt.rendezvousRank(routeKey(victimTerm))[0]

	var ts *httptest.Server
	for i, u := range f.urls {
		if u == victim.url {
			ts = f.backends[i]
		}
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.rt.CheckNow(ctx)

	code, body := get(t, f.front.URL+"/v1/query?q="+victimTerm+"&k=5")
	if code != 200 {
		t.Fatalf("query after replica kill = %d: %s", code, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) == 0 {
		t.Error("failover answer has no results")
	}

	// Kill the survivor too: shed.
	for i, u := range f.urls {
		if u != victim.url {
			f.backends[i].Close()
		}
	}
	f.rt.CheckNow(ctx)
	code, body = get(t, f.front.URL+"/v1/query?q=olap")
	if code != 503 {
		t.Fatalf("query with no replicas = %d: %s", code, body)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != server.CodeShed {
		t.Errorf("code = %q, want %q", env.Error.Code, server.CodeShed)
	}
}

// TestReformulatePropagation is the coordinated-write guarantee: a
// reformulation through the router leaves EVERY replica at the same
// rates version with the same vector.
func TestReformulatePropagation(t *testing.T) {
	f := newFleet(t, 3)

	_, body := get(t, f.front.URL+"/v1/query?q=olap&k=3")
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d,%d&mode=structure&version=%d",
		f.front.URL, qr.Results[0].Node, qr.Results[1].Node, qr.Version)
	code, body := get(t, url)
	if code != 200 {
		t.Fatalf("reformulate = %d: %s", code, body)
	}
	var rr server.ReformulateResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version <= qr.Version {
		t.Fatalf("reformulate did not advance the version: %d -> %d", qr.Version, rr.Version)
	}

	var ref *server.RatesResponse
	for i, u := range f.urls {
		_, raw := get(t, u+"/v1/rates")
		var rts server.RatesResponse
		if err := json.Unmarshal(raw, &rts); err != nil {
			t.Fatal(err)
		}
		if rts.Version != rr.Version {
			t.Errorf("replica %d at version %d, want %d", i, rts.Version, rr.Version)
		}
		if ref == nil {
			ref = &rts
			continue
		}
		if len(rts.Vector) != len(ref.Vector) {
			t.Fatalf("replica %d vector length %d != %d", i, len(rts.Vector), len(ref.Vector))
		}
		for j := range rts.Vector {
			if rts.Vector[j] != ref.Vector[j] {
				t.Errorf("replica %d vector[%d] = %v, want %v", i, j, rts.Vector[j], ref.Vector[j])
			}
		}
	}

	// Post-propagation byte-identity holds against the SERVING replica
	// (named in the response header): cross-replica answers can differ
	// in the last float bits because each replica warm-starts solves
	// from its own history, but the router adds and loses nothing.
	path := "/v1/query?q=olap&k=5"
	resp, err := http.Get(f.front.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	_, viaRouter := readBody(t, resp)
	servedBy := resp.Header.Get(HeaderServedBy)
	if servedBy == "" {
		t.Fatal("routed answer missing the " + HeaderServedBy + " header")
	}
	_, direct := get(t, servedBy+path)
	if !bytes.Equal(viaRouter, direct) {
		t.Error("routed post-reformulate answer diverges from the serving replica's direct answer")
	}
}

// TestSwapFanout: a corpus swap through the router moves every replica
// to the new generation.
func TestSwapFanout(t *testing.T) {
	f := newFleet(t, 2)

	code, body := postJSON(t, f.front.URL+"/v1/corpus/swap", server.CorpusSwapRequest{Snapshot: "next.snap"})
	if code != 200 {
		t.Fatalf("swap = %d: %s", code, body)
	}
	var sr server.CorpusSwapResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 2 {
		t.Fatalf("generation = %d, want 2", sr.Generation)
	}
	for i, u := range f.urls {
		_, raw := get(t, u+"/v1/healthz")
		var h server.HealthResponse
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		if h.Generation != 2 {
			t.Errorf("replica %d generation = %d, want 2", i, h.Generation)
		}
	}

	// Queries keep working on the new generation, through the router.
	code, body = get(t, f.front.URL+"/v1/query?q=olap&k=5")
	if code != 200 {
		t.Fatalf("post-swap query = %d: %s", code, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Generation != 2 {
		t.Errorf("post-swap answer generation = %d, want 2", qr.Generation)
	}
}

// TestRoutedConflictIsTheReplicas: a stale ifGeneration on POST
// /v1/rates and POST /v1/corpus/swap answers through the router with the
// replica's own 409 body, the served generation included; only the
// request ID differs.
func TestRoutedConflictIsTheReplicas(t *testing.T) {
	f := newFleet(t, 2)
	requestID := regexp.MustCompile(`,"requestId":"[^"]*"`)
	vector := f.servers[0].Engine().Pin().Rates().Vector()
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/rates", server.RatesPublishRequest{Vector: vector, IfGeneration: 9}},
		{"/v1/corpus/swap", server.CorpusSwapRequest{Snapshot: "next.snap", IfGeneration: 9}},
	} {
		code, direct := postJSON(t, f.urls[0]+tc.path, tc.body)
		if code != http.StatusConflict {
			t.Fatalf("direct %s = %d, want 409: %s", tc.path, code, direct)
		}
		code, routed := postJSON(t, f.front.URL+tc.path, tc.body)
		if code != http.StatusConflict {
			t.Fatalf("routed %s = %d, want 409: %s", tc.path, code, routed)
		}
		direct, routed = requestID.ReplaceAll(direct, nil), requestID.ReplaceAll(routed, nil)
		if !bytes.Equal(routed, direct) {
			t.Errorf("routed %s 409 differs from the replica's:\nrouted %s\ndirect %s", tc.path, routed, direct)
		}
		if !bytes.Contains(routed, []byte(`"generation":1`)) {
			t.Errorf("routed %s 409 does not name the served generation: %s", tc.path, routed)
		}
	}
}

// TestMinVersionHeaders: asserting a future version the fleet cannot
// satisfy answers the fleet-level 409, and a malformed header is a
// 400 — while an assertion the fleet DOES satisfy passes through.
func TestMinVersionHeaders(t *testing.T) {
	f := newFleet(t, 2)

	do := func(header, value string) (int, []byte) {
		req, err := http.NewRequest(http.MethodGet, f.front.URL+"/v1/query?q=olap", nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(header, value)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, _ := do(HeaderMinRatesVersion, "1"); code != 200 {
		t.Fatalf("satisfiable version assertion = %d, want 200", code)
	}
	code, body := do(HeaderMinRatesVersion, "999999")
	if code != 409 {
		t.Fatalf("unsatisfiable version assertion = %d, want 409: %s", code, body)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != server.CodeVersionConflict {
		t.Errorf("code = %q, want %q", env.Error.Code, server.CodeVersionConflict)
	}
	if code, _ = do(HeaderMinGeneration, "not-a-number"); code != 400 {
		t.Errorf("malformed header = %d, want 400", code)
	}
}

// TestRouterHealthz: the fleet view reports per-replica state and
// flips to 503/down when the last replica dies.
func TestRouterHealthz(t *testing.T) {
	f := newFleet(t, 2)

	code, body := get(t, f.front.URL+"/v1/router/healthz")
	if code != 200 {
		t.Fatalf("router healthz = %d: %s", code, body)
	}
	var rh RouterHealthResponse
	if err := json.Unmarshal(body, &rh); err != nil {
		t.Fatal(err)
	}
	if rh.Status != "ok" || rh.ReplicasHealthy != 2 || rh.ReplicasTotal != 2 {
		t.Errorf("fleet view = %+v, want 2/2 ok", rh)
	}
	if rh.FloorGeneration != 1 || rh.FloorRatesVersion < 1 {
		t.Errorf("floor = (%d, %d), want generation 1 and version >= 1", rh.FloorGeneration, rh.FloorRatesVersion)
	}

	for _, ts := range f.backends {
		ts.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.rt.CheckNow(ctx)
	code, body = get(t, f.front.URL+"/v1/router/healthz")
	if code != 503 {
		t.Fatalf("router healthz with dead fleet = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &rh); err != nil {
		t.Fatal(err)
	}
	if rh.Status != "down" || rh.ReplicasHealthy != 0 {
		t.Errorf("fleet view = %+v, want 0 healthy/down", rh)
	}
	for _, rs := range rh.Replicas {
		if rs.Healthy || rs.LastError == "" {
			t.Errorf("dead replica row = %+v, want unhealthy with an error", rs)
		}
	}
}

// TestReadProxiesAndMetrics: /v1/healthz, /v1/stats and GET /v1/rates
// proxy to a replica; /metrics serves the afq_router_* families.
func TestReadProxiesAndMetrics(t *testing.T) {
	f := newFleet(t, 2)

	for _, path := range []string{"/v1/healthz", "/v1/stats", "/v1/rates"} {
		code, body := get(t, f.front.URL+path)
		if code != 200 {
			t.Errorf("%s = %d: %s", path, code, body)
		}
	}
	get(t, f.front.URL+"/v1/query?q=olap") // make routed_total non-zero

	code, body := get(t, f.front.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, family := range []string{
		"afq_router_replica_up", "afq_router_floor_rates_version",
		"afq_router_routed_total", "afq_router_health_checks_total",
		"afq_router_http_requests_total",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
}

// metricValue scrapes one single-sample family from the router's
// registry.
func metricValue(t testing.TB, rt *Router, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := rt.robs.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte(name+" ")) {
			var v float64
			if _, err := fmt.Sscanf(string(line[len(name)+1:]), "%g", &v); err == nil {
				return v
			}
		}
	}
	return 0
}

// reformulateFailTransport injects a connection-level failure (no HTTP
// response) for every /v1/reformulate dispatch, counting them; all
// other traffic passes through.
type reformulateFailTransport struct {
	dispatches atomic.Int64
}

func (ft *reformulateFailTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/reformulate" {
		ft.dispatches.Add(1)
		return nil, errors.New("connection reset (injected)")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestReformulateDispatchNeverRetried: reformulation is not idempotent,
// so a transport failure mid-dispatch must answer the 502 "state
// unknown" — NEVER be silently re-sent by the replica client's retry
// budget, which could apply the feedback twice.
func TestReformulateDispatchNeverRetried(t *testing.T) {
	f := newFleet(t, 2)

	ft := &reformulateFailTransport{}
	rt, err := New(f.urls, Options{
		Timeout:        10 * time.Second,
		HealthInterval: -1,
		Retries:        2, // must not apply to the reformulate dispatch
		HTTPClient:     &http.Client{Transport: ft},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	code, body := get(t, front.URL+"/v1/reformulate?q=olap&feedback=1")
	if code != 502 {
		t.Fatalf("reformulate with failing transport = %d, want 502: %s", code, body)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != server.CodeInternal {
		t.Errorf("code = %q, want %q", env.Error.Code, server.CodeInternal)
	}
	if got := ft.dispatches.Load(); got != 1 {
		t.Errorf("reformulate dispatched %d times, want exactly 1 — a retry could double-apply feedback", got)
	}
}

// TestRatesReadRespectsVersionAssertion: GET /v1/rates must honour the
// read-your-writes contract — an unsatisfiable version assertion is a
// 409, never a silently stale vector from the any-live fallback. The
// fallback stays in place for /v1/healthz, where a behind replica's
// answer is still a real answer.
func TestRatesReadRespectsVersionAssertion(t *testing.T) {
	f := newFleet(t, 2)

	do := func(path string) (int, []byte) {
		req, err := http.NewRequest(http.MethodGet, f.front.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderMinRatesVersion, "999999")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := do("/v1/rates")
	if code != 409 {
		t.Fatalf("GET /v1/rates with unsatisfiable assertion = %d, want 409: %s", code, body)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != server.CodeVersionConflict {
		t.Errorf("code = %q, want %q", env.Error.Code, server.CodeVersionConflict)
	}
	if code, body = do("/v1/healthz"); code != 200 {
		t.Errorf("GET /v1/healthz with unsatisfiable assertion = %d, want 200 via fallback: %s", code, body)
	}
}

// TestStaleSkipsCountOnEveryWalk: a live replica passed over for being
// below the floor moves afq_router_stale_skips_total on every route
// that walks the fleet — the batch planner and both /v1/rates methods
// included, which used to skip silently.
func TestStaleSkipsCountOnEveryWalk(t *testing.T) {
	f := newFleet(t, 2)
	behind, ahead := f.rt.replicas[0], f.rt.replicas[1]

	// A publish lands on one replica behind the router's back, and the
	// router learns of it (as a health probe would report) before any
	// resync has caught the other replica up.
	var rates server.RatesResponse
	_, raw := get(t, ahead.url+"/v1/rates")
	if err := json.Unmarshal(raw, &rates); err != nil {
		t.Fatal(err)
	}
	code, raw := postJSON(t, ahead.url+"/v1/rates", server.RatesPublishRequest{Vector: rates.Vector, IfVersion: rates.Version})
	if code != 200 {
		t.Fatalf("direct publish = %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &rates); err != nil {
		t.Fatal(err)
	}
	gen, _ := f.rt.Floor()
	ahead.observe(gen, rates.Version)
	f.rt.raiseFloor(gen, rates.Version)

	// A batch item whose rendezvous order starts at the behind replica.
	var item string
	for topic := 0; topic < datagen.NumTopics() && item == ""; topic++ {
		for _, w := range datagen.TopicWords(topic) {
			if f.rt.rendezvousRank(routeKey(w))[0] == behind {
				item = w
				break
			}
		}
	}
	if item == "" {
		t.Fatal("no vocabulary word is owned by replica 0")
	}

	steps := []struct {
		name string
		do   func() (int, []byte)
	}{
		{"GET /v1/rates", func() (int, []byte) { return get(t, f.front.URL+"/v1/rates") }},
		{"POST /v1/query/batch", func() (int, []byte) {
			return postJSON(t, f.front.URL+"/v1/query/batch",
				server.BatchQueryRequest{Queries: []server.BatchQueryItem{{Q: item, K: 3}}})
		}},
		// Last: its propagation catches the behind replica up.
		{"POST /v1/rates", func() (int, []byte) {
			return postJSON(t, f.front.URL+"/v1/rates",
				server.RatesPublishRequest{Vector: rates.Vector, IfVersion: rates.Version})
		}},
	}
	for _, st := range steps {
		before := metricValue(t, f.rt, "afq_router_stale_skips_total")
		if code, body := st.do(); code != 200 {
			t.Fatalf("%s with one replica behind = %d, want 200 from the other: %s", st.name, code, body)
		}
		if after := metricValue(t, f.rt, "afq_router_stale_skips_total"); after != before+1 {
			t.Errorf("%s: afq_router_stale_skips_total %g → %g, want one counted skip", st.name, before, after)
		}
	}
}

// TestAnswerOfLastResortNamesReplica: when every attempt 5xxed and the
// router forwards the kept answer-of-last-resort, the response still
// names the replica that produced it.
func TestAnswerOfLastResortNamesReplica(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/v1/healthz" {
			io.WriteString(w, `{"status":"ok","generation":1,"ratesVersion":1}`)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":{"code":"internal","message":"boom"}}`)
	}))
	defer ts.Close()

	rt, err := New([]string{ts.URL}, Options{Timeout: 5 * time.Second, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/query?q=olap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != 500 {
		t.Fatalf("last-resort forward = %d, want the replica's 500", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderServedBy); got != ts.URL {
		t.Errorf("%s = %q, want %q", HeaderServedBy, got, ts.URL)
	}
}

// TestRemapBatchIndices: replica sub-batch error messages name
// sub-batch item positions; the router must translate them back to the
// client's original panel indices.
func TestRemapBatchIndices(t *testing.T) {
	idxs := []int{5, 7, 11}
	cases := []struct{ in, want string }{
		{"queries[0]: q required", "queries[5]: q required"},
		{"queries[2]: k must be in 1..1000", "queries[11]: k must be in 1..1000"},
		{"queries[1] and queries[2] clash", "queries[7] and queries[11] clash"},
		{"queries[9]: out of range passes through", "queries[9]: out of range passes through"},
		{"queries[abc] unparseable", "queries[abc] unparseable"},
		{"queries[ unterminated", "queries[ unterminated"},
		{"no index here", "no index here"},
	}
	for _, tc := range cases {
		if got := remapBatchIndices(tc.in, idxs); got != tc.want {
			t.Errorf("remapBatchIndices(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
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
		s := f.newReplica(t)
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

// newReplica builds one fleet replica as it boots: the shared corpus at
// generation 1, rates version 1.
func (f *fleet) newReplica(t testing.TB) *server.Server {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}}, server.WithSwapDir(f.swapDir))
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// lostReplyTransport lets the first request of method to path reach its
// replica and then loses the reply, as a connection reset after the
// replica applied the request would; it counts every such request per
// replica host.
type lostReplyTransport struct {
	method, path string

	mu   sync.Mutex
	sent map[string]int // matching requests per replica host
	lost string         // the host whose reply was lost
}

func (lt *lostReplyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if req.Method != lt.method || req.URL.Path != lt.path {
		return resp, err
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.sent == nil {
		lt.sent = make(map[string]int)
	}
	lt.sent[req.URL.Host]++
	if lt.lost == "" && err == nil {
		lt.lost = req.URL.Host
		resp.Body.Close()
		return nil, errors.New("connection reset after the reply (injected)")
	}
	return resp, err
}

// dispatches returns the matching requests sent to each replica host and
// the host whose reply was lost.
func (lt *lostReplyTransport) dispatches() (sent map[string]int, lost string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	sent = make(map[string]int, len(lt.sent))
	for h, n := range lt.sent {
		sent[h] = n
	}
	return sent, lt.lost
}

// via builds a second router over f's replicas whose every exchange goes
// through tr.
func (f *fleet) via(t testing.TB, tr http.RoundTripper) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(f.urls, Options{
		Timeout:        10 * time.Second,
		HealthInterval: -1,
		HTTPClient:     &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front
}

// wantError checks a router answer's status and envelope code.
func wantError(t *testing.T, code int, body []byte, wantStatus int, wantCode string) {
	t.Helper()
	var env server.ErrorEnvelope
	if code != wantStatus || json.Unmarshal(body, &env) != nil || env.Error.Code != wantCode {
		t.Fatalf("answer = %d %s, want %d %s", code, body, wantStatus, wantCode)
	}
}

// feedbackTarget returns a node of a fleet query's answer, a valid
// reformulation feedback id.
func feedbackTarget(t *testing.T, front string) int64 {
	t.Helper()
	code, body := get(t, front+"/v1/query?q=olap&k=3")
	var qr server.QueryResponse
	if code != 200 || json.Unmarshal(body, &qr) != nil || len(qr.Results) == 0 {
		t.Fatalf("seed query = %d: %s", code, body)
	}
	return qr.Results[0].Node
}

// exchangeCase is one kind of router→replica exchange: a fleet, the
// request whose first reply is lost after the replica acted, its re-send
// rule, and what the router must answer.
type exchangeCase struct {
	profiles     bool // the fleet runs the personalization tier
	method, path string
	resend       bool
	run          func(t *testing.T, f *fleet, rt *Router, front string)
}

// check runs c on a fresh two-replica fleet and counts its dispatches:
// one to the replica whose reply was lost for a request sent once, two
// for one that may be re-sent, and never more than one to a replica
// whose reply arrived.
func (c exchangeCase) check(t *testing.T) {
	t.Helper()
	var f *fleet
	if c.profiles {
		f = newProfileFleet(t, 2)
	} else {
		f = newFleet(t, 2)
	}
	lt := &lostReplyTransport{method: c.method, path: c.path}
	rt, front := f.via(t, lt)
	c.run(t, f, rt, front.URL)
	sent, lost := lt.dispatches()
	if lost == "" {
		t.Fatalf("no %s %s was dispatched", c.method, c.path)
	}
	want := 1
	if c.resend {
		want = 2
	}
	if sent[lost] != want {
		t.Errorf("%s %s dispatched %d times to the replica whose reply was lost, want %d", c.method, c.path, sent[lost], want)
	}
	for host, n := range sent {
		if host != lost && n > 1 {
			t.Errorf("%s %s dispatched %d times to %s, whose reply arrived", c.method, c.path, n, host)
		}
	}
}

// TestReformulateDispatchNeverRetried: reformulation is not idempotent,
// so a global /v1/reformulate whose reply is lost after the replica
// applied it answers the 502 "state unknown" after exactly one dispatch.
// Re-sending it could apply the feedback twice.
func TestReformulateDispatchNeverRetried(t *testing.T) {
	exchangeCase{false, http.MethodGet, "/v1/reformulate", sendOnce,
		func(t *testing.T, f *fleet, rt *Router, front string) {
			code, body := get(t, fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d", front, feedbackTarget(t, front)))
			wantError(t, code, body, http.StatusBadGateway, server.CodeInternal)
		}}.check(t)
}

// TestRatesPublishDispatchNeverRetried is the publish twin of
// TestReformulateDispatchNeverRetried: an unguarded POST /v1/rates
// whose reply is lost after the replica applied it answers the 502
// "state unknown" after exactly one dispatch. Re-sending it would move
// the replica a second version.
func TestRatesPublishDispatchNeverRetried(t *testing.T) {
	exchangeCase{false, http.MethodPost, "/v1/rates", sendOnce,
		func(t *testing.T, f *fleet, rt *Router, front string) {
			vector := f.servers[0].Engine().Pin().Rates().Vector()
			code, body := postJSON(t, front+"/v1/rates", server.RatesPublishRequest{Vector: vector})
			wantError(t, code, body, http.StatusBadGateway, server.CodeInternal)
			if v := f.servers[0].Engine().Pin().Version(); v != 2 {
				t.Errorf("the publish's replica is at rates version %d, want 2 (applied once)", v)
			}
		}}.check(t)
}

// TestExchangeResendRule holds every other kind of router→replica
// exchange to its re-send rule (the global reformulation and the publish
// have the two tests above), with the reply of its first dispatch lost
// after the replica acted. A request that changes replica state is sent
// exactly once: re-sending a swap or a profile write would apply it
// twice, so the router answers without knowing (502, or the owner-down
// 503) or marks the replica down. A read, a sub-batch or a health probe
// is sent once more to the same replica and answers.
func TestExchangeResendRule(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows := []struct {
		name string
		exchangeCase
	}{
		{"corpus swap", exchangeCase{false, http.MethodPost, "/v1/corpus/swap", sendOnce,
			func(t *testing.T, f *fleet, rt *Router, front string) {
				if code, body := postJSON(t, front+"/v1/corpus/swap", server.CorpusSwapRequest{Snapshot: "next.snap"}); code != 200 {
					t.Fatalf("swap = %d: %s", code, body)
				}
			}}},
		{"PUT /v1/profile/{id}", exchangeCase{true, http.MethodPut, "/v1/profile/ada", sendOnce,
			func(t *testing.T, f *fleet, rt *Router, front string) {
				code, _, body := servedBy(t, http.MethodPut, front+"/v1/profile/ada", `{"mixture":{"streaming":1}}`)
				wantError(t, code, body, http.StatusServiceUnavailable, server.CodeShed)
				stored := 0
				for _, u := range f.urls {
					if code, _ := get(t, u+"/v1/profile/ada"); code == 200 {
						stored++
					}
				}
				if stored != 1 {
					t.Errorf("the profile is stored on %d replicas, want 1 (its owner, once)", stored)
				}
			}}},
		{"profile reformulate", exchangeCase{true, http.MethodGet, "/v1/reformulate", sendOnce,
			func(t *testing.T, f *fleet, rt *Router, front string) {
				if code, _, body := servedBy(t, http.MethodPut, front+"/v1/profile/ada", `{"mixture":{"streaming":1}}`); code != 200 {
					t.Fatalf("PUT = %d: %s", code, body)
				}
				code, _, body := servedBy(t, http.MethodGet,
					fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d&profile=ada", front, feedbackTarget(t, front)), "")
				wantError(t, code, body, http.StatusBadGateway, server.CodeInternal)
			}}},
		{"catch-up publish", exchangeCase{false, http.MethodPost, "/v1/rates", sendOnce,
			func(t *testing.T, f *fleet, rt *Router, front string) {
				// A publish lands on replica 0 behind the router's back; the
				// sweep's resync replays it onto replica 1.
				var rates server.RatesResponse
				if _, raw := get(t, f.urls[0]+"/v1/rates"); json.Unmarshal(raw, &rates) != nil {
					t.Fatalf("rates: %s", raw)
				}
				if code, raw := postJSON(t, f.urls[0]+"/v1/rates",
					server.RatesPublishRequest{Vector: rates.Vector, IfVersion: rates.Version}); code != 200 {
					t.Fatalf("direct publish = %d: %s", code, raw)
				}
				rt.CheckNow(ctx)
				if v := f.servers[1].Engine().Pin().Version(); v != 2 {
					t.Errorf("the caught-up replica is at rates version %d, want 2 (applied once)", v)
				}
				if rt.replicas[1].up.Load() {
					t.Error("a replica whose catch-up reply was lost is still marked up")
				}
			}}},
		{"proxied read", exchangeCase{false, http.MethodGet, "/v1/query", mayResend,
			func(t *testing.T, f *fleet, rt *Router, front string) {
				if code, body := get(t, front+"/v1/query?q=olap&k=3"); code != 200 {
					t.Fatalf("query = %d: %s", code, body)
				}
			}}},
		{"sub-batch", exchangeCase{false, http.MethodPost, "/v1/query/batch", mayResend,
			func(t *testing.T, f *fleet, rt *Router, front string) {
				if code, body := postJSON(t, front+"/v1/query/batch",
					server.BatchQueryRequest{Queries: []server.BatchQueryItem{{Q: "olap", K: 3}}}); code != 200 {
					t.Fatalf("batch = %d: %s", code, body)
				}
			}}},
		{"health probe", exchangeCase{false, http.MethodGet, "/v1/healthz", mayResend,
			func(t *testing.T, f *fleet, rt *Router, front string) {
				// New's first sweep probed every replica.
				for i, rp := range rt.replicas {
					if !rp.up.Load() {
						t.Errorf("replica %d is down after a probe whose first reply was lost", i)
					}
				}
			}}},
	}
	for _, row := range rows {
		t.Run(row.name, row.check)
	}
}

// TestSwapDispatchNeverRetried: the swap fan-out is sent once to each
// live replica. The replica whose reply was lost swapped once and is
// marked down, never re-sent the swap, so both replicas end at
// generation 2 and so does the floor — no replica is shut out of
// serving by a generation only the re-send reached.
func TestSwapDispatchNeverRetried(t *testing.T) {
	f := newFleet(t, 2)
	lt := &lostReplyTransport{method: http.MethodPost, path: "/v1/corpus/swap"}
	rt, front := f.via(t, lt)

	code, body := postJSON(t, front.URL+"/v1/corpus/swap", server.CorpusSwapRequest{Snapshot: "next.snap"})
	var sr server.CorpusSwapResponse
	if code != 200 || json.Unmarshal(body, &sr) != nil || sr.Generation != 2 {
		t.Fatalf("swap with a lost reply = %d: %s, want 200 at generation 2", code, body)
	}
	sent, lost := lt.dispatches()
	for i, u := range f.urls {
		if n := sent[strings.TrimPrefix(u, "http://")]; n != 1 {
			t.Errorf("replica %d was sent the swap %d times, want 1", i, n)
		}
		if g := f.servers[i].Engine().Pin().Generation(); g != 2 {
			t.Errorf("replica %d is at generation %d, want 2", i, g)
		}
		if rp := rt.replicas[i]; rp.up.Load() == (strings.TrimPrefix(rp.url, "http://") == lost) {
			t.Errorf("replica %d up=%v; the one whose reply was lost (%s) must be down, the other up", i, rp.up.Load(), lost)
		}
	}
	if gen, _ := rt.Floor(); gen != 2 {
		t.Errorf("floor generation = %d, want 2", gen)
	}
}

// restartBehind takes f to rates version 2 through a routed
// reformulation, then restarts replica 1 at the same URL: a fresh
// process at its boot state, rates version 1, while the router still
// knows it at 2.
func (f *fleet) restartBehind(t *testing.T) {
	t.Helper()
	_, body := get(t, f.front.URL+"/v1/query?q=olap&k=3")
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d,%d&mode=structure&version=%d",
		f.front.URL, qr.Results[0].Node, qr.Results[1].Node, qr.Version))
	if code != 200 {
		t.Fatalf("reformulate = %d: %s", code, body)
	}
	var rr server.ReformulateResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version != 2 {
		t.Fatalf("reformulate published version %d, want 2", rr.Version)
	}

	addr := f.backends[1].Listener.Addr().String()
	f.backends[1].Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(f.newReplica(t).Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	var h server.HealthResponse
	if _, raw := get(t, f.urls[1]+"/v1/healthz"); json.Unmarshal(raw, &h) != nil || h.RatesVersion != 1 {
		t.Fatalf("restarted replica reports %s, want rates version 1", raw)
	}
	if rv := f.rt.replicas[1].rv.Load(); rv != 2 {
		t.Fatalf("router knows the restarted replica at rates version %d before any sweep, want 2", rv)
	}
}

// asserted sends method to url through the router asserting rates
// version minRV, with body (nil sends none) as JSON.
func asserted(t *testing.T, method, url string, body any, minRV uint64) (code int, raw []byte, served string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderMinRatesVersion, strconv.FormatUint(minRV, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	code, raw = readBody(t, resp)
	return code, raw, resp.Header.Get(HeaderServedBy)
}

// ownedBy returns up to n vocabulary words whose rendezvous owner is rp.
func (f *fleet) ownedBy(rp *replica, n int) []string {
	var words []string
	for topic := 0; topic < datagen.NumTopics(); topic++ {
		for _, w := range datagen.TopicWords(topic) {
			if len(words) < n && f.rt.rendezvousRank(routeKey(w))[0] == rp {
				words = append(words, w)
			}
		}
	}
	return words
}

// TestRestartedReplicaIsCaughtUp: a replica restarted at the same URL
// comes back at its snapshot's rates version, below the fleet's. The
// next sweep must see it there and catch it up, so no read asserting
// the fleet's version is answered below it.
func TestRestartedReplicaIsCaughtUp(t *testing.T) {
	f := newFleet(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.restartBehind(t)

	f.rt.CheckNow(ctx)
	var fleetView RouterHealthResponse
	if _, raw := get(t, f.front.URL+"/v1/router/healthz"); json.Unmarshal(raw, &fleetView) != nil {
		t.Fatalf("router healthz: %s", raw)
	}
	if row := fleetView.Replicas[1]; !row.Healthy || row.RatesVersion != 2 {
		t.Errorf("router's view of the restarted replica = %+v, want healthy at rates version 2", row)
	}
	var h server.HealthResponse
	if _, raw := get(t, f.urls[1]+"/v1/healthz"); json.Unmarshal(raw, &h) != nil || h.RatesVersion != 2 {
		t.Errorf("restarted replica reports %s after the sweep, want it caught up to rates version 2", raw)
	}

	for _, term := range []string{"olap", "xml", "mining", "query", "web", "search",
		"data", "database", "stream", "graph", "index", "learning"} {
		code, raw, from := asserted(t, http.MethodGet, f.front.URL+"/v1/query?k=3&q="+term, nil, 2)
		var ans server.QueryResponse
		if code != 200 || json.Unmarshal(raw, &ans) != nil || ans.Version != 2 {
			t.Errorf("q=%s asserting version 2 = %d at version %d from %s", term, code, ans.Version, from)
		}
	}
}

// TestAnswersBelowFloorNeverForwarded: before any sweep sees the
// restarted replica, the router still routes to it, and its answers are
// below the asserted version. None may be forwarded: every read
// asserting version 2, single or batch, answers 200 at version 2 or
// more or the 409, and the router's view of the replica drops to the
// version it served.
func TestAnswersBelowFloorNeverForwarded(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		f := newFleet(t, 2)
		terms := append(f.ownedBy(f.rt.replicas[1], 6), f.ownedBy(f.rt.replicas[0], 6)...)
		f.restartBehind(t)
		for _, term := range terms {
			code, raw, from := asserted(t, http.MethodGet, f.front.URL+"/v1/query?k=3&q="+term, nil, 2)
			var ans server.QueryResponse
			if code != http.StatusConflict && (code != 200 || json.Unmarshal(raw, &ans) != nil || ans.Version < 2) {
				t.Errorf("q=%s asserting version 2 = %d at version %d from %s", term, code, ans.Version, from)
			}
		}
		if rv := f.rt.replicas[1].rv.Load(); rv != 1 {
			t.Errorf("router knows the restarted replica at rates version %d, want 1 (what it served)", rv)
		}
	})
	t.Run("batch", func(t *testing.T) {
		f := newFleet(t, 2)
		var req server.BatchQueryRequest
		for _, w := range f.ownedBy(f.rt.replicas[1], 6) {
			req.Queries = append(req.Queries, server.BatchQueryItem{Q: w, K: 3})
		}
		f.restartBehind(t)
		code, raw, _ := asserted(t, http.MethodPost, f.front.URL+"/v1/query/batch", req, 2)
		var ans server.BatchQueryResponse
		if code != http.StatusConflict && (code != 200 || json.Unmarshal(raw, &ans) != nil || ans.Version < 2) {
			t.Errorf("batch asserting version 2 = %d at version %d", code, ans.Version)
		}
		for i, a := range ans.Answers {
			if a.Version < 2 {
				t.Errorf("answer %d at version %d, below the asserted 2", i, a.Version)
			}
		}
		if rv := f.rt.replicas[1].rv.Load(); rv != 1 {
			t.Errorf("router knows the restarted replica at rates version %d, want 1 (what it served)", rv)
		}
	})
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

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/profile"
)

// sinkWriter is a reusable ResponseWriter that keeps nothing but the
// status and the byte count, so an allocation count over a handler is
// the handler's own (httptest.ResponseRecorder clones its headers and
// grows a body buffer per response).
type sinkWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *sinkWriter) Header() http.Header { return w.hdr }
func (w *sinkWriter) WriteHeader(c int)   { w.code = c }
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func (w *sinkWriter) reset() {
	clear(w.hdr)
	w.code, w.n = 0, 0
}

// queryHitAllocCeiling is the most a warmed /v1/query result hit may
// allocate through Server.Handler() — middleware, admission guard and
// handler together. The parent of the stored-body change measured 148 for
// this request (ten snippets, the response DTO, the indented two-pass
// encoder, four URL-query parses, an access-log line built for a nil
// logger); a stored-body hit measures 50: the request ID, trace and
// context, the status and latency labels, one URL-query parse, the parsed
// query with its canonical key, the request the handler skeleton
// carries, three trace events and four headers. The ceiling leaves room
// for a Go release to move a few, not for a renderer or an encoder to
// come back.
const queryHitAllocCeiling = 64

// TestQueryHitAllocs pins the cost of the commonest request: a warmed
// result hit neither renders nor encodes.
func TestQueryHitAllocs(t *testing.T) {
	s, _ := testCachedServer(t)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/query?q=olap&k=10", nil)
	w := &sinkWriter{hdr: make(http.Header)}
	for i := 0; i < 3; i++ { // miss, first hit (renders and attaches), stored-body hit
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("warm-up request %d: status %d, %d bytes", i, w.code, w.n)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		h.ServeHTTP(w, req)
	})
	t.Logf("warmed /v1/query hit: %.0f allocs", allocs)
	if allocs > queryHitAllocCeiling {
		t.Errorf("a warmed result hit allocated %.0f times, ceiling %d", allocs, queryHitAllocCeiling)
	}
}

// profileHitAllocCeiling is the most a warmed personalized hit may
// allocate through Server.Handler(). It renders and encodes its body on
// every hit (a profile-scoped entry carries no stored body), which is
// most of the 123 allocations measured when personalized answers had
// their own LRU; the ceiling keeps the fold into the serving cache's
// result LRU from costing more.
const profileHitAllocCeiling = 128

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestProfileHitAllocs pins the cost of a repeated personalized query:
// one profile read and one lookup of its scoped result entry.
func TestProfileHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a personalized hit encodes through pooled buffers, and -race drops pool puts")
	}
	s, _ := profileTestServer(t)
	if _, err := s.Profiles().Put(&profile.Profile{ID: "u1", Mixture: map[string]float64{"streaming": 1}}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/query?q=olap&k=10&profile=u1", nil)
	w := &sinkWriter{hdr: make(http.Header)}
	for i := 0; i < 2; i++ { // the blend, then the first hit
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("warm-up request %d: status %d, %d bytes", i, w.code, w.n)
		}
	}
	hits := s.Profiles().Stats().AnswerHits
	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		h.ServeHTTP(w, req)
	})
	if got := s.Profiles().Stats().AnswerHits - hits; got < 200 {
		t.Fatalf("%d of 200+ measured requests were profile hits", got)
	}
	t.Logf("warmed personalized hit: %.0f allocs", allocs)
	if allocs > profileHitAllocCeiling {
		t.Errorf("a warmed personalized hit allocated %.0f times, ceiling %d", allocs, profileHitAllocCeiling)
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json rejects used to go
// out as a 200 with a torn body (the status was committed before the
// encoder ran). It is now a whole 500 internal envelope that carries the
// request ID the middleware gave this response.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s, _ := testServer(t)
	h := s.obs.mw.Wrap("/nan", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, QueryResponse{Results: []Result{{Node: 1, Score: math.NaN()}}})
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nan", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body.Bytes())
	}
	env := decodeEnvelope(t, rec.Body.Bytes())
	if env.Error.Code != CodeInternal || !strings.Contains(env.Error.Message, "NaN") {
		t.Errorf("envelope = %+v, want code %q naming the NaN", env.Error, CodeInternal)
	}
	if id := rec.Header().Get("X-Request-ID"); id == "" || env.Error.RequestID != id {
		t.Errorf("envelope request ID %q, response header %q", env.Error.RequestID, id)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q for a %d-byte body", cl, rec.Body.Len())
	}
}

// TestJSONResponsesCarryContentLength: every JSON body is encoded before
// it is written, so none goes out chunked — not even the ones past
// net/http's 2 kB sniff buffer.
func TestJSONResponsesCarryContentLength(t *testing.T) {
	_, ts := testServer(t)
	var items []string
	for _, term := range []string{"olap", "xml", "mining", "search", "query", "web",
		"data", "index", "cube", "stream", "graph", "join"} {
		items = append(items, fmt.Sprintf(`{"q":%q}`, term))
	}
	batch := `{"queries":[` + strings.Join(items, ",") + `]}`
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/query?q=olap&k=10", ""},
		{http.MethodPost, "/v1/query/batch", batch},
		{http.MethodGet, "/v1/query", ""}, // a 400 envelope
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if len(resp.TransferEncoding) != 0 || resp.Header.Get("Content-Length") != strconv.Itoa(body.Len()) || body.Len() == 0 {
			t.Errorf("%s %s: Transfer-Encoding %v, Content-Length %q, body %d bytes",
				tc.method, tc.path, resp.TransferEncoding, resp.Header.Get("Content-Length"), body.Len())
		}
		if bytes.Contains(body.Bytes(), []byte("\n  ")) {
			t.Errorf("%s %s: body is indented: %.80s", tc.method, tc.path, body.Bytes())
		}
	}
}

// queryRaw asks h one /v1/query and returns the recorder.
func queryRaw(t testing.TB, h http.Handler, q string, mode core.Mode, k int) *httptest.ResponseRecorder {
	t.Helper()
	v := url.Values{"q": {q}, "k": {strconv.Itoa(k)}, "mode": {string(mode)}}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?"+v.Encode(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query %q mode=%s k=%d: status %d: %s", q, mode, k, rec.Code, rec.Body.Bytes())
	}
	return rec
}

// storedBody reports the bytes the serving cache holds for (q, mode, k)
// as spelled — nil when the next such request would have to render.
func storedBody(t testing.TB, s *Server, q string, mode core.Mode, k int) []byte {
	t.Helper()
	pq := ir.ParseQuery(q)
	ans, err := s.cache.QueryModePinnedCtx(context.Background(), s.eng.Pin(), pq, k, mode)
	if err != nil {
		t.Fatal(err)
	}
	return ans.Body(pq.String())
}

// checkStateHeaders holds an answer's two state headers to its body.
func checkStateHeaders(t testing.TB, rec *httptest.ResponseRecorder) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatalf("body is not JSON: %v: %s", err, rec.Body.Bytes())
	}
	if g, v := rec.Header().Get(HeaderGeneration), rec.Header().Get(HeaderRatesVersion); g != strconv.FormatUint(qr.Generation, 10) || v != strconv.FormatUint(qr.Version, 10) {
		t.Errorf("headers say generation %q version %q, body says %d and %d", g, v, qr.Generation, qr.Version)
	}
	return qr
}

// TestStoredBodyBytes: the bytes kept with a result-cache entry are the
// bytes a fresh rendering of that hit writes, the miss that created the
// entry differs from them in the cache value alone, and another spelling
// of the same canonical query never receives them.
func TestStoredBodyBytes(t *testing.T) {
	s, _ := testCachedServer(t)
	h := s.Handler()
	const first, second = "olap cube", "cube olap"
	for _, mode := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		for _, k := range []int{1, 10} {
			miss := queryRaw(t, h, first, mode, k)
			if storedBody(t, s, first, mode, k) != nil {
				t.Fatalf("mode=%s k=%d: the miss attached a body; only a repeat may", mode, k)
			}
			fresh := queryRaw(t, h, first, mode, k) // first hit: rendered, then kept
			kept := storedBody(t, s, first, mode, k)
			stored := queryRaw(t, h, first, mode, k) // answered with the kept bytes
			if kept == nil || !bytes.Equal(stored.Body.Bytes(), kept) {
				t.Fatalf("mode=%s k=%d: repeat was not answered from the entry's body (%d bytes kept)", mode, k, len(kept))
			}
			if !bytes.Equal(fresh.Body.Bytes(), stored.Body.Bytes()) {
				t.Errorf("mode=%s k=%d: stored body differs from the fresh rendering of the same hit:\n%s\n%s",
					mode, k, fresh.Body.Bytes(), stored.Body.Bytes())
			}
			mq := checkStateHeaders(t, miss)
			if mq.Cache == cache.SourceResult || len(mq.Results) == 0 {
				t.Fatalf("mode=%s k=%d: first ask answered cache=%q with %d results", mode, k, mq.Cache, len(mq.Results))
			}
			asHit := bytes.Replace(miss.Body.Bytes(), []byte(`"cache":"`+mq.Cache+`"`), []byte(`"cache":"result"`), 1)
			if !bytes.Equal(asHit, stored.Body.Bytes()) {
				t.Errorf("mode=%s k=%d: miss and hit differ in more than the cache value:\n%s\n%s",
					mode, k, miss.Body.Bytes(), stored.Body.Bytes())
			}
			checkStateHeaders(t, stored)

			// The other spelling shares the entry (one canonical query) and
			// must still be told its own query back, every time.
			for i := 0; i < 2; i++ {
				other := checkStateHeaders(t, queryRaw(t, h, second, mode, k))
				if want := ir.ParseQuery(second).String(); other.Query != want || other.Cache != cache.SourceResult {
					t.Errorf("mode=%s k=%d: %q answered query=%q cache=%q, want %q from the shared entry",
						mode, k, second, other.Query, other.Cache, want)
				}
			}
			if !bytes.Equal(storedBody(t, s, first, mode, k), kept) {
				t.Errorf("mode=%s k=%d: the other spelling displaced the first body", mode, k)
			}
		}
	}

	// A rejected mode is answered before the cache is asked: however
	// often it repeats, it is the same 400 and no entry ever holds it.
	entries := s.cache.Stats().Result.Entries
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?q=olap+cube&k=10&mode=combined", nil))
		if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte(`"mode must be one of authority, hub"`)) {
			t.Fatalf("mode=combined: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	if now := s.cache.Stats().Result.Entries; now != entries {
		t.Errorf("rejected requests grew the result cache from %d to %d entries", entries, now)
	}
}

// TestStoredBodyDiesWithItsState: a publish and a swap each re-key the
// cache, so the first answer after either is rendered under the new
// state and says so in body and headers — never the old entry's bytes.
func TestStoredBodyDiesWithItsState(t *testing.T) {
	s, ts, _ := swapServer(t)
	h := s.Handler()
	warm := func() QueryResponse {
		var last QueryResponse
		for i := 0; i < 3; i++ {
			last = checkStateHeaders(t, queryRaw(t, h, "olap", core.ModeAuthority, 5))
		}
		if last.Cache != cache.SourceResult || storedBody(t, s, "olap", core.ModeAuthority, 5) == nil {
			t.Fatalf("three asks did not leave a stored body (cache=%q)", last.Cache)
		}
		return last
	}
	before := warm()

	var rates RatesResponse
	getJSON(t, ts.URL+"/v1/rates", &rates)
	for i := range rates.Vector {
		rates.Vector[i] *= 0.9
	}
	if code, body := postRates(t, ts.URL, RatesPublishRequest{Vector: rates.Vector, IfVersion: rates.Version}); code != 200 {
		t.Fatalf("publish = %d: %s", code, body)
	}
	published := checkStateHeaders(t, queryRaw(t, h, "olap", core.ModeAuthority, 5))
	if published.Version != before.Version+1 || published.Cache == cache.SourceResult {
		t.Errorf("after a publish: version %d cache=%q, want version %d solved anew", published.Version, published.Cache, before.Version+1)
	}
	warm()

	var swapped CorpusSwapResponse
	if code := postSwap(t, ts.URL, CorpusSwapRequest{Snapshot: "next.snap"}, &swapped); code != 200 {
		t.Fatalf("swap = %d", code)
	}
	after := checkStateHeaders(t, queryRaw(t, h, "olap", core.ModeAuthority, 5))
	if after.Generation != before.Generation+1 || after.Generation != swapped.Generation || after.Cache == cache.SourceResult {
		t.Errorf("after a swap: generation %d cache=%q, want generation %d solved anew", after.Generation, after.Cache, swapped.Generation)
	}
}

// TestStoredBodyHitStillCounts: skipping the renderer skips no
// bookkeeping — the result-hit counter, the provenance metric and the
// request's parse/solve/render trace events move on a stored-body hit
// exactly as on a rendered one.
func TestStoredBodyHitStillCounts(t *testing.T) {
	var slow syncBuffer
	s, ts := obsTestServer(t, WithObservability(ObsOptions{SlowLog: &slow, SlowThreshold: time.Nanosecond}))
	h := s.Handler()
	for i := 0; i < 3; i++ {
		queryRaw(t, h, "olap", core.ModeAuthority, 5)
	}
	if storedBody(t, s, "olap", core.ModeAuthority, 5) == nil { // itself one more result hit
		t.Fatal("no stored body after three asks")
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	before, _ := scrapeMetrics(t, ts.URL)
	lines := strings.Count(slow.String(), "\n")

	queryRaw(t, h, "olap", core.ModeAuthority, 5)

	var st2 StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st2)
	after, _ := scrapeMetrics(t, ts.URL)
	if got := st2.Cache.Result.Hits - st.Cache.Result.Hits; got != 1 {
		t.Errorf("cache.result.hits moved by %d on one stored-body hit, want 1", got)
	}
	const series = `afq_query_cache_outcome_total{source="result"}`
	if got := after[series] - before[series]; got != 1 {
		t.Errorf("%s moved by %v on one stored-body hit, want 1", series, got)
	}
	if !waitFor(t, 2*time.Second, func() bool { return strings.Count(slow.String(), "\n") > lines }) {
		t.Fatal("the stored-body hit wrote no slow-log line")
	}
	logged := strings.Split(strings.TrimSpace(slow.String()), "\n")[lines]
	for _, ev := range []string{`"name":"parse"`, `"name":"solve"`, `"name":"render"`, "source=result"} {
		if !strings.Contains(logged, ev) {
			t.Errorf("stored-body hit's trace lacks %s: %s", ev, logged)
		}
	}
}

// TestStoredBodyHammer races first hits on one key against each other
// and against a rates publish (run under -race in CI): every answer is a
// whole JSON body whose headers agree with it, at the version before the
// publish or the one after, and the key ends up with a stored body.
func TestStoredBodyHammer(t *testing.T) {
	s, _ := testCachedServer(t)
	h := s.Handler()
	start := checkStateHeaders(t, queryRaw(t, h, "olap", core.ModeAuthority, 10)) // the miss

	next := s.eng.Pin().Rates()
	vector := next.Vector()
	for i := range vector {
		vector[i] *= 0.9
	}
	if err := next.SetVector(vector); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if g == 0 && i == 20 {
					if _, err := s.eng.TrySetRates(next, start.Version); err != nil {
						t.Errorf("publish: %v", err)
					}
				}
				rec := httptest.NewRecorder() // the mux writes its match into the request: one each
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query?q=olap&k=10", nil))
				var qr QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); rec.Code != http.StatusOK || err != nil {
					t.Errorf("status %d, decode %v: %s", rec.Code, err, rec.Body.Bytes())
					return
				}
				if qr.Version != start.Version && qr.Version != start.Version+1 {
					t.Errorf("answer at version %d, want %d or %d", qr.Version, start.Version, start.Version+1)
				}
				if rec.Header().Get(HeaderRatesVersion) != strconv.FormatUint(qr.Version, 10) || len(qr.Results) != len(start.Results) {
					t.Errorf("header version %q, body version %d, %d results (want %d)",
						rec.Header().Get(HeaderRatesVersion), qr.Version, len(qr.Results), len(start.Results))
				}
			}
		}(g)
	}
	wg.Wait()
	end := checkStateHeaders(t, queryRaw(t, h, "olap", core.ModeAuthority, 10))
	if end.Version != start.Version+1 || end.Cache != cache.SourceResult || storedBody(t, s, "olap", core.ModeAuthority, 10) == nil {
		t.Errorf("after the hammer: version %d cache=%q, want a stored-body hit at version %d", end.Version, end.Cache, start.Version+1)
	}
}

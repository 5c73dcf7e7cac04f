package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// testCachedServer builds a server with a small explicit cache budget.
func testCachedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	core1 := core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}}
	s, err := New(ds, core1, WithCache(8<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestCachedQueryHitAndStats(t *testing.T) {
	_, ts := testCachedServer(t)

	var first, second QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5", &first); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if first.Cache == "" || first.Cache == "result" {
		t.Errorf("first query cache source = %q, want a non-hit source", first.Cache)
	}
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5", &second); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if second.Cache != "result" {
		t.Errorf("second query cache source = %q, want result", second.Cache)
	}
	if len(first.Results) != len(second.Results) {
		t.Fatalf("result lengths differ: %d vs %d", len(first.Results), len(second.Results))
	}
	for i := range first.Results {
		if first.Results[i] != second.Results[i] {
			t.Errorf("result %d differs between miss and hit: %+v vs %+v",
				i, first.Results[i], second.Results[i])
		}
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("/v1/stats status = %d", code)
	}
	if !st.CacheEnabled || st.Cache == nil {
		t.Fatalf("stats = %+v, want cache enabled", st)
	}
	if st.Cache.Result.Hits == 0 {
		t.Errorf("no result-cache hits recorded: %+v", st.Cache.Result)
	}
	if st.Cache.Computes == 0 {
		t.Errorf("no computes recorded: %+v", st.Cache)
	}
	if st.RatesVersion != 1 {
		t.Errorf("ratesVersion = %d, want 1", st.RatesVersion)
	}
}

// TestCachedMatchesUncached: the server's /v1/query payload (scores,
// order, base flags) — on the miss AND on the hit — must equal a direct
// core.Pinned.Solve + TopK over the same dataset and options, the
// uncached reference.
func TestCachedMatchesUncached(t *testing.T) {
	s, ts := testCachedServer(t)
	g := s.eng.Pin().Corpus().Graph()

	for _, q := range []string{"olap", "olap+cube", "data+mining"} {
		url := "/v1/query?q=" + q + "&k=10"
		ref := rankWith(t, s, ir.ParseQuery(strings.ReplaceAll(q, "+", " ")))
		top := ref.TopK(10)
		for _, pass := range []string{"miss", "hit"} {
			var cached QueryResponse
			if code := getJSON(t, ts.URL+url, &cached); code != 200 {
				t.Fatalf("%s: status %d", q, code)
			}
			if len(cached.Results) != len(top) {
				t.Fatalf("%s %s: lengths %d vs %d", q, pass, len(cached.Results), len(top))
			}
			if cached.BaseSet != len(ref.Base) || cached.Iterations != ref.Iterations {
				t.Errorf("%s %s: meta differs: cached {base %d, iters %d} vs uncached {base %d, iters %d}",
					q, pass, cached.BaseSet, cached.Iterations, len(ref.Base), ref.Iterations)
			}
			for i, c := range cached.Results {
				u := top[i]
				if c.Node != int64(u.Node) || c.Score != u.Score || c.InBase != ref.InBase(u.Node) || c.Display != g.Display(u.Node) {
					t.Errorf("%s %s: result %d differs: %+v vs %+v", q, pass, i, c, u)
				}
			}
		}
	}
}

func TestHealthzReportsVersionAndCache(t *testing.T) {
	s, ts := testCachedServer(t)
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if h.RatesVersion != 1 || !h.CacheEnabled {
		t.Errorf("healthz = %+v, want ratesVersion 1, cacheEnabled true", h)
	}
	if h.Nodes != s.eng.Pin().Corpus().Graph().NumNodes() || h.Edges != s.eng.Pin().Corpus().Graph().NumEdges() {
		t.Errorf("healthz counts = %+v", h)
	}
}

// TestCachedReformulateBumpsVersion: a reformulation through a cached
// server publishes new rates; /query afterwards serves the new version
// (never a stale cached answer) and /healthz reflects the bump.
func TestCachedReformulateBumpsVersion(t *testing.T) {
	_, ts := testCachedServer(t)

	var q1 QueryResponse
	getJSON(t, ts.URL+"/v1/query?q=olap&k=3", &q1)
	if len(q1.Results) == 0 {
		t.Skip("no results at this scale")
	}
	target := q1.Results[0].Node

	var ref ReformulateResponse
	code := getJSON(t, fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d&mode=structure", ts.URL, target), &ref)
	if code != 200 {
		t.Fatalf("reformulate status = %d", code)
	}
	if ref.Version != 2 {
		t.Fatalf("post-reformulation version = %d, want 2", ref.Version)
	}
	var q2 QueryResponse
	getJSON(t, ts.URL+"/v1/query?q=olap&k=3", &q2)
	if q2.Version != 2 {
		t.Errorf("query after reformulation served version %d, want 2", q2.Version)
	}
	var h HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.RatesVersion != 2 {
		t.Errorf("healthz ratesVersion = %d, want 2", h.RatesVersion)
	}
}

// TestCachedAnswerReportsServedVersion: a content-only reformulation
// publishes value-identical rates under a new version. A repeat query
// and a repeat batch item must report that new version — in the body,
// the header and every batch item — so a client that hands it back to
// /v1/reformulate, as API.md tells it to, is never answered 409.
func TestCachedAnswerReportsServedVersion(t *testing.T) {
	_, ts := testCachedServer(t)
	const batch = `{"queries":[{"q":"olap","k":5},{"q":"xml"}]}`
	askBatch := func() BatchQueryResponse {
		t.Helper()
		code, _, raw := fetch(t, http.MethodPost, ts.URL+"/v1/query/batch", strings.NewReader(batch))
		var br BatchQueryResponse
		if err := json.Unmarshal(raw, &br); code != 200 || err != nil {
			t.Fatalf("batch: status %d, %v: %s", code, err, raw)
		}
		for i, a := range br.Answers {
			if a.Version != br.Version {
				t.Errorf("batch item %d reports version %d inside a batch at version %d", i, a.Version, br.Version)
			}
		}
		return br
	}
	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5", &q); code != 200 || len(q.Results) == 0 {
		t.Fatalf("query: status %d, %d results", code, len(q.Results))
	}
	askBatch() // every item is now a result entry
	for round := 0; round < 2; round++ {
		// The client's token is the version its last answer reported.
		token := q.Version
		var ref ReformulateResponse
		url := fmt.Sprintf("%s/v1/reformulate?q=olap&k=5&feedback=%d&mode=content&version=%d", ts.URL, q.Results[0].Node, token)
		if code := getJSON(t, url, &ref); code != 200 {
			t.Fatalf("round %d: reformulate with the served version %d answered %d", round, token, code)
		}
		if ref.Version == token {
			t.Fatalf("round %d: a publish kept version %d", round, token)
		}
		version := ref.Version
		code, hdr, raw := fetch(t, http.MethodGet, ts.URL+"/v1/query?q=olap&k=5", nil)
		if err := json.Unmarshal(raw, &q); code != 200 || err != nil {
			t.Fatalf("round %d: query: status %d, %v", round, code, err)
		}
		if q.Version != version || hdr.Get(HeaderRatesVersion) != strconv.FormatUint(version, 10) {
			t.Errorf("round %d: repeat query served at version %d reports %d (header %s), source %q",
				round, version, q.Version, hdr.Get(HeaderRatesVersion), q.Cache)
		}
		if q.Cache != "term" {
			t.Errorf("round %d: repeat query after a value-identical publish is %q, want a re-rank (term)", round, q.Cache)
		}
		if br := askBatch(); br.Version != version {
			t.Errorf("round %d: batch at version %d, want %d", round, br.Version, version)
		}
	}
}

// TestCachedServerConcurrency is the -race workout of the cached HTTP
// path: concurrent queries (hitting, missing, deduplicating) racing
// reformulations that publish new rates.
func TestCachedServerConcurrency(t *testing.T) {
	_, ts := testCachedServer(t)

	var q1 QueryResponse
	getJSON(t, ts.URL+"/v1/query?q=olap&k=3", &q1)
	if len(q1.Results) == 0 {
		t.Skip("no results at this scale")
	}
	target := q1.Results[0].Node

	queries := []string{"olap", "olap+cube", "cube", "data"}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				resp, err := http.Get(ts.URL + "/v1/query?q=" + queries[(w+i)%len(queries)] + "&k=5")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			resp, err := http.Get(fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d&mode=structure", ts.URL, target))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 && resp.StatusCode != 409 && resp.StatusCode != 400 {
				t.Errorf("reformulate status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Cache == nil || st.Cache.Result.Hits+st.Cache.Vector.Hits == 0 {
		t.Errorf("no cache hits under concurrent load: %+v", st.Cache)
	}
}

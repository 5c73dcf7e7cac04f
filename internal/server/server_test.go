package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
	"authorityflow/internal/storage"
)

// rankWith solves q on the server's engine outside HTTP.
func rankWith(t *testing.T, s *Server, q *ir.Query) *core.RankResult {
	t.Helper()
	rs, err := s.Engine().Pin().Solve(context.Background(), core.SolveSpec{Queries: []*ir.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	s, ts := testServer(t)
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if h.Status != "ok" || h.Nodes != s.Dataset().Graph.NumNodes() {
		t.Errorf("health = %+v", h)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5", &q); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if q.BaseSet == 0 {
		t.Error("empty base set for olap")
	}
	if len(q.Results) == 0 || len(q.Results) > 5 {
		t.Errorf("results = %d", len(q.Results))
	}
	for i := 1; i < len(q.Results); i++ {
		if q.Results[i].Score > q.Results[i-1].Score {
			t.Error("results not sorted")
		}
	}
	if q.Results[0].Display == "" {
		t.Error("missing display string")
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	_, ts := testServer(t)
	if code := getJSON(t, ts.URL+"/v1/query", nil); code != 400 {
		t.Errorf("missing q: status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=0", nil); code != 400 {
		t.Errorf("bad k: status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=9999", nil); code != 400 {
		t.Errorf("huge k: status = %d", code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, ts := testServer(t)
	// Find a real target first.
	res := rankWith(t, s, ir.NewQuery("olap"))
	top := res.TopK(1)
	if len(top) == 0 || top[0].Score == 0 {
		t.Skip("no olap results at this scale")
	}
	var sg storage.SubgraphJSON
	url := fmt.Sprintf("%s/v1/explain?q=olap&target=%d", ts.URL, top[0].Node)
	if code := getJSON(t, url, &sg); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if sg.Target != int64(top[0].Node) {
		t.Errorf("target = %d", sg.Target)
	}
	if len(sg.Nodes) == 0 {
		t.Error("empty explaining subgraph")
	}
	// Errors.
	if code := getJSON(t, ts.URL+"/v1/explain?q=olap", nil); code != 400 {
		t.Errorf("missing target: status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/explain?q=olap&target=99999999", nil); code != 400 {
		t.Errorf("bad target: status = %d", code)
	}
}

func TestReformulateEndpoint(t *testing.T) {
	s, ts := testServer(t)
	res := rankWith(t, s, ir.NewQuery("olap"))
	top := res.TopK(2)
	if len(top) < 2 || top[1].Score == 0 {
		t.Skip("not enough olap results at this scale")
	}
	before := s.Engine().Rates().Vector()

	var out ReformulateResponse
	url := fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d,%d&mode=structure", ts.URL, top[0].Node, top[1].Node)
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out.Rates == "" || len(out.Results) == 0 {
		t.Errorf("response = %+v", out)
	}
	if len(out.Expansion) != 0 {
		t.Error("structure mode should not expand the query")
	}
	// The trained rates persist on the server.
	after := s.Engine().Rates().Vector()
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("reformulation did not persist rates")
	}
	// /rates reflects them.
	var rates struct {
		Vector []float64 `json:"vector"`
	}
	if code := getJSON(t, ts.URL+"/v1/rates", &rates); code != 200 {
		t.Fatal("rates endpoint failed")
	}
	for i := range rates.Vector {
		if rates.Vector[i] != after[i] {
			t.Fatal("/v1/rates disagrees with engine state")
		}
	}

	// Content mode returns expansion terms.
	url = fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d&mode=both", ts.URL, top[0].Node)
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("both mode status = %d", code)
	}
	if len(out.Expansion) == 0 {
		t.Error("both mode should expand the query")
	}
}

func TestReformulateEndpointErrors(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/reformulate?q=olap", 400},                       // no feedback
		{"/v1/reformulate?q=olap&feedback=abc", 400},          // bad id
		{"/v1/reformulate?q=olap&feedback=1&mode=bogus", 400}, // bad mode
		{"/v1/reformulate?feedback=1", 400},                   // no query
		{"/v1/reformulate?q=olap&feedback=99999999", 400},     // out of range
	}
	for _, c := range cases {
		if code := getJSON(t, ts.URL+c.url, nil); code != c.want {
			t.Errorf("%s: status = %d, want %d", c.url, code, c.want)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	_, ts := testServer(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			q := []string{"olap", "xml", "mining", "search"}[i%4]
			resp, err := http.Get(ts.URL + "/v1/query?q=" + q)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != 200 {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// Queries racing reformulations run lock-free against atomically
	// published rates snapshots; run with -race to catch violations.
	// Queries must always succeed; a reformulation either succeeds
	// (200) or loses the optimistic publication race (409) — never
	// anything else.
	s, ts := testServer(t)
	res := rankWith(t, s, ir.NewQuery("olap"))
	top := res.TopK(1)
	if len(top) == 0 || top[0].Score == 0 {
		t.Skip("no feedback target at this scale")
	}
	target := top[0].Node
	done := make(chan error, 10)
	for i := 0; i < 10; i++ {
		go func(i int) {
			var url string
			reform := i%3 == 0
			if reform {
				url = fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d", ts.URL, target)
			} else {
				url = ts.URL + "/v1/query?q=olap"
			}
			resp, err := http.Get(url)
			if err == nil {
				resp.Body.Close()
				switch {
				case resp.StatusCode == 200:
				case reform && resp.StatusCode == 409:
					// Lost the CAS race to a concurrent reformulation.
				default:
					err = fmt.Errorf("%s: status %d", url, resp.StatusCode)
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 10; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReformulateVersionToken(t *testing.T) {
	s, ts := testServer(t)
	res := rankWith(t, s, ir.NewQuery("olap"))
	top := res.TopK(1)
	if len(top) == 0 || top[0].Score == 0 {
		t.Skip("no feedback target at this scale")
	}
	target := top[0].Node

	// /query and /rates report the current version.
	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap", &q); code != 200 {
		t.Fatalf("query status = %d", code)
	}
	if q.Version == 0 {
		t.Fatal("query response missing rates version")
	}
	var rates struct {
		Version uint64 `json:"version"`
	}
	if code := getJSON(t, ts.URL+"/v1/rates", &rates); code != 200 {
		t.Fatal("rates endpoint failed")
	}
	if rates.Version != q.Version {
		t.Fatalf("/v1/rates version %d != /query version %d", rates.Version, q.Version)
	}

	// Reformulating with the current token succeeds and bumps the
	// version.
	var out ReformulateResponse
	url := fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d&version=%d", ts.URL, target, q.Version)
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("reformulate status = %d", code)
	}
	if out.Version != q.Version+1 {
		t.Errorf("version after reformulation = %d, want %d", out.Version, q.Version+1)
	}

	// Re-presenting the now-stale token yields 409 with the winning
	// version.
	var conflict ConflictEnvelope
	if code := getJSON(t, url, &conflict); code != 409 {
		t.Fatalf("stale version status = %d, want 409", code)
	}
	if conflict.Version != out.Version {
		t.Errorf("conflict reports version %d, want %d", conflict.Version, out.Version)
	}

	// A malformed token is a 400, not a conflict.
	bad := fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d&version=banana", ts.URL, target)
	if code := getJSON(t, bad, nil); code != 400 {
		t.Errorf("bad token status = %d, want 400", code)
	}
}

func TestConcurrentReformulationStress(t *testing.T) {
	// A heavier hammer for -race: many goroutines mixing /query,
	// /reformulate and /rates. Exactly version(final) - version(initial)
	// reformulations may succeed; every other one must 409.
	s, ts := testServer(t)
	res := rankWith(t, s, ir.NewQuery("olap"))
	top := res.TopK(1)
	if len(top) == 0 || top[0].Score == 0 {
		t.Skip("no feedback target at this scale")
	}
	target := top[0].Node
	startVersion := s.Engine().RatesVersion()

	const n = 24
	codes := make(chan int, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			var url string
			switch i % 4 {
			case 0:
				url = fmt.Sprintf("%s/v1/reformulate?q=olap&feedback=%d", ts.URL, target)
			case 1:
				url = ts.URL + "/v1/rates"
			default:
				url = ts.URL + "/v1/query?q=olap"
			}
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				codes <- 0
				return
			}
			resp.Body.Close()
			if i%4 != 0 && resp.StatusCode != 200 {
				errs <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
			} else {
				errs <- nil
			}
			if i%4 == 0 {
				codes <- resp.StatusCode
			} else {
				codes <- 0
			}
		}(i)
	}
	succeeded := 0
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		switch c := <-codes; c {
		case 200:
			succeeded++
		case 0, 409:
		default:
			t.Fatalf("reformulate status = %d", c)
		}
	}
	bumps := int(s.Engine().RatesVersion() - startVersion)
	if succeeded != bumps {
		t.Errorf("%d reformulations succeeded but version advanced by %d", succeeded, bumps)
	}
	if succeeded == 0 {
		t.Error("no reformulation succeeded at all")
	}
}

func TestExplainFormats(t *testing.T) {
	s, ts := testServer(t)
	res := rankWith(t, s, ir.NewQuery("olap"))
	top := res.TopK(1)
	if len(top) == 0 || top[0].Score == 0 {
		t.Skip("no results at this scale")
	}
	base := fmt.Sprintf("%s/v1/explain?q=olap&target=%d", ts.URL, top[0].Node)

	resp, err := http.Get(base + "&format=html")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Errorf("html content type = %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "<svg") {
		t.Error("html format missing SVG")
	}

	resp, err = http.Get(base + "&format=dot")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if !strings.HasPrefix(body, "digraph") {
		t.Error("dot format malformed")
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

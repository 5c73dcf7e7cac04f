package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/rank"
)

// benchQueries is a 16-query panel of distinct single- and multi-term
// queries (every one a distinct kernel column on a cache-less server).
var benchQueries = []string{
	"olap", "xml", "mining", "query", "index", "search", "web", "join",
	"olap cube", "xml mining", "query optimization", "web search",
	"stream join", "database index", "olap mining", "xml query",
}

// BenchmarkQueryBatchV1 measures the v1 batch endpoint against N
// sequential /v1/query calls on an uncached server (so every query
// runs kernel work): the batch path answers the same 16 queries with
// one kernel solve where the single path runs 16. Reported: ns/query and kernel solves per benchmark op.
func BenchmarkQueryBatchV1(b *testing.B) {
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Engine().GlobalRank() // take the one-time warm-start solve out

	var batchReq BatchQueryRequest
	for _, q := range benchQueries {
		batchReq.Queries = append(batchReq.Queries, BatchQueryItem{Q: q, K: 10})
	}
	body, err := json.Marshal(batchReq)
	if err != nil {
		b.Fatal(err)
	}

	singleURLs := make([]string, len(benchQueries))
	for i, q := range benchQueries {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/query", nil)
		v := req.URL.Query()
		v.Set("q", q)
		v.Set("k", "10")
		req.URL.RawQuery = v.Encode()
		singleURLs[i] = req.URL.String()
	}

	b.Run("single16", func(b *testing.B) {
		var solves int
		s.Engine().SetSolveHook(func(core.SolveStats) { solves++ })
		defer s.Engine().SetSolveHook(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, u := range singleURLs {
				resp, err := http.Get(u)
				if err != nil {
					b.Fatal(err)
				}
				var qr QueryResponse
				if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(benchQueries)), "ns/query")
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	})

	b.Run("batch16", func(b *testing.B) {
		var solves int
		s.Engine().SetSolveHook(func(core.SolveStats) { solves++ })
		defer s.Engine().SetSolveHook(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var br BatchQueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 || len(br.Answers) != len(benchQueries) {
				b.Fatalf("status %d, answers %d", resp.StatusCode, len(br.Answers))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(benchQueries)), "ns/query")
		b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
	})
}

package conformance

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/router"
	"authorityflow/internal/server"
)

// routedRows is the router-merged path: the world's queries sent as ONE
// /v1/query/batch through a real router.Router over two replicas of the
// world — split by rendezvous key, answered by each replica's batch
// path, merged back in order — against the same queries asked singly of
// one in-process cache. A replica's batch assembles a multi-keyword item
// from term vectors, solving the terms it lacks, so the cache is first
// asked every keyword alone: its multi-keyword answers are then
// assembled from bit-identical vectors too. The read contract spells a
// query as free text, every keyword at weight 1, so that is how both
// sides ask.
func routedRows(w *world) []path {
	texts := make([]string, len(w.queries))
	qs := make([]*ir.Query, len(w.queries))
	for i, q := range w.queries {
		texts[i] = strings.Join(q.Terms(), " ")
		qs[i] = ir.ParseQuery(texts[i])
	}
	var rows []path
	for _, m := range []core.Mode{core.ModeAuthority, core.ModeHub} {
		m := m
		rows = append(rows, path{fmt.Sprintf("%s router-merged batch ≡ cached single queries", m), bitIdentical,
			func(t *testing.T) [][]float64 { return routedBatch(t, w, texts, m) },
			func(t *testing.T) [][]float64 {
				c := cache.New(w.eng, cache.Options{})
				makeResident(t, c, w.pin, m, qs)
				out := make([][]float64, len(qs))
				for i, q := range qs {
					ans, err := c.QueryModePinnedCtx(context.Background(), w.pin, q, topK, m)
					if err != nil {
						t.Fatal(err)
					}
					out[i] = flatten(ans.Results)
				}
				return out
			}})
	}
	return rows
}

// routedBatch asks texts as one batch in direction m of a router over
// two fresh replicas of the world and returns the merged answers as
// (node, score) pairs — the scores after their JSON round trip. Every
// merged answer must carry the batch's one (generation, version).
func routedBatch(t *testing.T, w *world, texts []string, m core.Mode) [][]float64 {
	t.Helper()
	ds := &datagen.Dataset{Name: "world", Graph: w.g, Rates: w.rates}
	urls := make([]string, 2)
	for i := range urls {
		s, err := server.New(ds, core.Config{Rank: tight})
		if err != nil {
			t.Fatal(err)
		}
		replica := httptest.NewServer(s.Handler())
		t.Cleanup(replica.Close)
		urls[i] = replica.URL
	}
	rt, err := router.New(urls, router.Options{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	var req server.BatchQueryRequest
	for _, text := range texts {
		req.Queries = append(req.Queries, server.BatchQueryItem{Q: text, K: topK, Mode: string(m)})
	}
	resp, err := server.NewClient(front.URL, nil).QueryBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != len(texts) {
		t.Fatalf("%d merged answers for %d queries", len(resp.Answers), len(texts))
	}
	out := make([][]float64, len(resp.Answers))
	for i, a := range resp.Answers {
		if a.Generation != resp.Generation || a.Version != resp.Version {
			t.Fatalf("answer %d is under (generation %d, version %d), the batch under (%d, %d)",
				i, a.Generation, a.Version, resp.Generation, resp.Version)
		}
		out[i] = make([]float64, 0, 2*len(a.Results))
		for _, r := range a.Results {
			out[i] = append(out[i], float64(r.Node), r.Score)
		}
	}
	return out
}

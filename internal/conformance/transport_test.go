package conformance

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
	"authorityflow/internal/server"
)

// TestFeedbackRoundAcrossTransports is one feedback round asked of two
// transports on twin engines — same corpus, same rates — in each of the
// paper's three settings: in process, Pinned.FeedbackCtx and a Solve
// requery under the pin it returns, warm-started from the feedback
// ranking; over HTTP, /v1/reformulate on a server, then its /v1/rates.
// The published rate vectors, the expansion terms and weights, the
// requery's top-k ids and scores and the published versions must agree
// bit for bit, the floats after their JSON round trip. The read contract
// spells a query as free text, every keyword at weight 1, so that is how
// both sides ask.
func TestFeedbackRoundAcrossTransports(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		w := newWorld(t, seed)
		text, ids := w.twoResultQuery(t)
		for _, mode := range []string{"structure", "content", "both"} {
			opts, err := core.ParseStrategy(mode)
			if err != nil {
				t.Fatal(err)
			}
			q := ir.ParseQuery(text)
			pin := w.fresh(t, w.rates).Pin()
			res := rankOne(t, pin, core.ModeAuthority, q)
			round, err := pin.FeedbackCtx(ctx, q, res, ids, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := round.Reformulation
			requery := solveOne(t, round.Pin, core.ModeAuthority, ref.Query, res.Scores)
			var want transportRound
			want.Vector = round.Pin.Rates().Vector()
			want.Version = round.Pin.Version()
			for _, wt := range ref.Expansion {
				want.Expansion = append(want.Expansion, server.ExpansionTerm{Term: wt.Term, Weight: wt.Weight})
			}
			for _, r := range rank.TopK(requery, topK) {
				want.Top = append(want.Top, float64(r.Node), r.Score)
			}
			if mode != "structure" && len(want.Expansion) == 0 {
				t.Fatalf("seed %d %s: the round expanded nothing", seed, mode)
			}

			got := w.reformulateOverHTTP(t, text, ids, mode)
			if d := want.diff(got); d != "" {
				t.Errorf("seed %d %s: in process and over HTTP differ in %s", seed, mode, d)
			}
		}
	}
}

// transportRound is what both transports report of a round.
type transportRound struct {
	Vector    []float64
	Version   uint64
	Expansion []server.ExpansionTerm
	Top       []float64 // (node, score) pairs
}

// diff names the first part in which r and o differ, or is empty.
func (r transportRound) diff(o transportRound) string {
	bits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case !bits(r.Vector, o.Vector):
		return "the rate vector: " + fmtFloats(r.Vector) + " vs " + fmtFloats(o.Vector)
	case r.Version != o.Version:
		return "the version: " + strconv.FormatUint(r.Version, 10) + " vs " + strconv.FormatUint(o.Version, 10)
	case len(r.Expansion) != len(o.Expansion):
		return "the expansion's length"
	case !bits(r.Top, o.Top):
		return "the requery's top-k: " + fmtFloats(r.Top) + " vs " + fmtFloats(o.Top)
	}
	for i, e := range r.Expansion {
		if e.Term != o.Expansion[i].Term || math.Float64bits(e.Weight) != math.Float64bits(o.Expansion[i].Weight) {
			return "expansion term " + strconv.Itoa(i)
		}
	}
	return ""
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// twoResultQuery is the free text of the world's first query whose
// ranking has two scored results, with those two results.
func (w *world) twoResultQuery(t *testing.T) (string, []graph.NodeID) {
	t.Helper()
	for _, q := range w.queries {
		text := strings.Join(q.Terms(), " ")
		res := rankOne(t, w.pin, core.ModeAuthority, ir.ParseQuery(text))
		if top := res.TopK(2); len(top) == 2 && top[1].Score > 0 {
			return text, []graph.NodeID{top[0].Node, top[1].Node}
		}
	}
	t.Fatal("no query of the world ranks two results")
	return "", nil
}

// reformulateOverHTTP asks a fresh server on the world for one
// /v1/reformulate round and reads back the rates it published.
func (w *world) reformulateOverHTTP(t *testing.T, text string, ids []graph.NodeID, mode string) transportRound {
	t.Helper()
	s, err := server.New(&datagen.Dataset{Name: "world", Graph: w.g, Rates: w.rates}, core.Config{Rank: tight})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	feedback := make([]string, len(ids))
	for i, id := range ids {
		feedback[i] = strconv.Itoa(int(id))
	}
	v := url.Values{"q": {text}, "k": {strconv.Itoa(topK)}, "mode": {mode}, "feedback": {strings.Join(feedback, ",")}}
	c := server.NewClient(ts.URL, nil, 0)
	raw, err := c.Do(context.Background(), http.MethodGet, "/v1/reformulate?"+v.Encode(), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var resp server.ReformulateResponse
	if raw.Status != http.StatusOK || json.Unmarshal(raw.Body, &resp) != nil {
		t.Fatalf("/v1/reformulate: %d %s", raw.Status, raw.Body)
	}
	raw, err = c.Do(context.Background(), http.MethodGet, "/v1/rates", nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	var rates server.RatesResponse
	if err := raw.Decode(&rates); err != nil {
		t.Fatal(err)
	}
	if rates.Version != resp.Version {
		t.Fatalf("/v1/rates at version %d after /v1/reformulate published %d", rates.Version, resp.Version)
	}
	out := transportRound{Vector: rates.Vector, Version: resp.Version, Expansion: resp.Expansion}
	for _, r := range resp.Results {
		out.Top = append(out.Top, float64(r.Node), r.Score)
	}
	return out
}

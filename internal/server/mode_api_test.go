package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// getBody fetches url and returns status + raw body bytes.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// modeSpellings are candidate values of the mode parameter: what the
// contract takes today, what it took before, and nonsense.
var modeSpellings = []string{"authority", "hub", "combined", "sideways"}

// contractModes asks the read contract which of modeSpellings it
// accepts, so a test of "every mode" cannot name fewer modes than
// /v1/query serves.
func contractModes(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, m := range modeSpellings {
		if _, err := ValidateReadParams(url.Values{"mode": {m}}); err == nil {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		t.Fatal("the read contract accepts no mode")
	}
	return out
}

// TestExplainTakesEveryMode: /v1/explain and /v1/audit take exactly the
// modes /v1/query takes — a ranking the contract serves is one the
// paper's Section 4 can explain — and refuse the rest with /v1/query's
// own bytes.
func TestExplainTakesEveryMode(t *testing.T) {
	_, ts := testServer(t)
	accepted := contractModes(t)
	for _, mode := range modeSpellings {
		qc, qbody := getBody(t, ts.URL+"/v1/query?q=olap&k=1&mode="+mode)
		if want := slices.Contains(accepted, mode); (qc == 200) != want {
			t.Fatalf("mode=%s: /v1/query answered %d, contract accepts = %v", mode, qc, want)
		}
		target := "0"
		if qc == 200 {
			var q QueryResponse
			if err := json.Unmarshal(qbody, &q); err != nil || len(q.Results) == 0 {
				t.Fatalf("mode=%s: no result to explain (%v)", mode, err)
			}
			target = strconv.FormatInt(q.Results[0].Node, 10)
		}
		for _, surface := range []string{"/v1/explain", "/v1/audit"} {
			code, body := getBody(t, ts.URL+surface+"?q=olap&target="+target+"&mode="+mode)
			if code != qc {
				t.Errorf("mode=%s: %s answered %d where /v1/query answered %d: %s", mode, surface, code, qc, body)
				continue
			}
			if qc == 200 {
				var e ExplainResponse // the audit body shares mode and score
				if err := json.Unmarshal(body, &e); err != nil || e.Mode != mode || e.Score <= 0 {
					t.Errorf("mode=%s: %s body mode=%q score=%v err=%v", mode, surface, e.Mode, e.Score, err)
				}
			} else if msg, want := errorMessage(t, body), errorMessage(t, qbody); msg != want {
				t.Errorf("mode=%s: %s rejected with %q, /v1/query with %q", mode, surface, msg, want)
			}
		}
	}
}

// errorMessage extracts the envelope's message (request ids differ).
func errorMessage(t *testing.T, body []byte) string {
	t.Helper()
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeInvalidArgument {
		t.Fatalf("not an invalid_argument envelope: %s", body)
	}
	return e.Error.Message
}

func TestQueryModeSurface(t *testing.T) {
	_, ts := testServer(t)

	// mode=authority is the default: spelling it out changes nothing —
	// the bodies are byte-identical (Mode is omitted for authority). One
	// priming request first, so both carry cache:"result".
	getBody(t, ts.URL+"/v1/query?q=olap&k=5")
	c1, b1 := getBody(t, ts.URL+"/v1/query?q=olap&k=5")
	c2, b2 := getBody(t, ts.URL+"/v1/query?q=olap&k=5&mode=authority")
	if c1 != 200 || c2 != 200 {
		t.Fatalf("statuses = %d, %d", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("mode=authority body differs from the default body")
	}

	// Every mode is first-class: results come back with the mode echoed
	// (authority as the omitted default), on the same generation.
	for _, mode := range contractModes(t) {
		var q QueryResponse
		if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5&mode="+mode, &q); code != 200 {
			t.Fatalf("mode=%s status = %d", mode, code)
		}
		if q.Mode != modeField(core.Mode(mode)) {
			t.Errorf("mode=%s echoed %q", mode, q.Mode)
		}
		if len(q.Results) == 0 {
			t.Errorf("mode=%s returned no results", mode)
		}
		if q.Generation != 1 {
			t.Errorf("mode=%s generation = %d", mode, q.Generation)
		}
	}

	// Repeated hub queries at a pinned generation are byte-identical
	// (after the priming miss).
	getBody(t, ts.URL+"/v1/query?q=cube&k=8&mode=hub")
	_, h1 := getBody(t, ts.URL+"/v1/query?q=cube&k=8&mode=hub")
	_, h2 := getBody(t, ts.URL+"/v1/query?q=cube&k=8&mode=hub")
	if !bytes.Equal(h1, h2) {
		t.Error("repeated hub queries are not byte-identical")
	}
}

// TestHubGoldenHTTP is the serving-tier golden: mode=hub over graph g
// must rank bit-identically to mode=authority over a server built on
// the pre-reversed graph (same rates — Reversed swaps the CSR roles,
// not the rate semantics).
func TestHubGoldenHTTP(t *testing.T) {
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rev := &datagen.Dataset{Name: ds.Name, Graph: ds.Graph.Reversed(), Rates: ds.Rates}

	ecfg := core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}}
	newTS := func(d *datagen.Dataset) *httptest.Server {
		s, err := New(d, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	fwd, pre := newTS(ds), newTS(rev)

	type results struct {
		Iterations int             `json:"iterations"`
		Results    json.RawMessage `json:"results"`
	}
	for _, q := range []string{"olap", "cube+aggregation", "mining"} {
		var hub, auth results
		if code := getJSON(t, fwd.URL+"/v1/query?q="+q+"&k=10&mode=hub", &hub); code != 200 {
			t.Fatalf("%s hub status = %d", q, code)
		}
		if code := getJSON(t, pre.URL+"/v1/query?q="+q+"&k=10", &auth); code != 200 {
			t.Fatalf("%s pre-reversed status = %d", q, code)
		}
		if !bytes.Equal(hub.Results, auth.Results) {
			t.Errorf("%s: hub results differ from pre-reversed authority:\n%s\n%s", q, hub.Results, auth.Results)
		}
		if hub.Iterations != auth.Iterations {
			t.Errorf("%s: iterations %d vs %d", q, hub.Iterations, auth.Iterations)
		}
	}
}

func TestAuditEndpoint(t *testing.T) {
	_, ts := testServer(t)

	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=1", &q); code != 200 || len(q.Results) == 0 {
		t.Fatalf("seed query failed: code=%d results=%d", code, len(q.Results))
	}
	target := q.Results[0].Node

	url := ts.URL + "/v1/audit?q=olap&target=" + strconv.FormatInt(target, 10)
	var a AuditResponse
	if code := getJSON(t, url, &a); code != 200 {
		t.Fatalf("audit status = %d", code)
	}
	if a.Node != target || !strings.Contains(a.Query, "olap") || a.Score <= 0 {
		t.Errorf("audit header = %+v", a)
	}
	if a.Budget != core.DefaultAuditBudget {
		t.Errorf("default budget = %d, want %d", a.Budget, core.DefaultAuditBudget)
	}
	if len(a.Contributions) == 0 || len(a.Nodes) == 0 {
		t.Fatalf("audit has no contributions: %d arcs, %d nodes", len(a.Contributions), len(a.Nodes))
	}
	if a.Generation != 1 || a.RatesVersion == 0 {
		t.Errorf("audit stamps = gen %d rv %d", a.Generation, a.RatesVersion)
	}
	// Contributions arrive ranked by sensitivity, most influential first.
	for i := 1; i < len(a.Contributions); i++ {
		if a.Contributions[i].Sensitivity > a.Contributions[i-1].Sensitivity {
			t.Fatalf("contributions not ranked: %d before %d", i-1, i)
		}
	}
	for _, c := range a.Contributions {
		if c.Type == "" {
			t.Error("contribution missing transfer-type name")
		}
	}

	// budget truncates the ranking.
	var small AuditResponse
	if code := getJSON(t, url+"&budget=3", &small); code != 200 {
		t.Fatalf("budgeted audit status = %d", code)
	}
	if len(small.Contributions) > 3 {
		t.Errorf("budget=3 returned %d contributions", len(small.Contributions))
	}
	if small.TotalArcs != a.TotalArcs {
		t.Errorf("TotalArcs %d changed under budget from %d", small.TotalArcs, a.TotalArcs)
	}

	// The determinism contract: at a pinned (generation, ratesVersion),
	// repeated audits are byte-identical.
	_, b1 := getBody(t, url+"&budget=5")
	_, b2 := getBody(t, url+"&budget=5")
	if !bytes.Equal(b1, b2) {
		t.Error("repeated audits are not byte-identical")
	}

	// Hub audits work.
	var hub AuditResponse
	if code := getJSON(t, url+"&mode=hub", &hub); code != 200 {
		t.Fatalf("hub audit status = %d", code)
	}
	if hub.Mode != "hub" {
		t.Errorf("hub audit mode = %q", hub.Mode)
	}
}

// TestReadContractUniform checks the ONE validation table: every read
// surface rejects a bad mode/budget/format with the same
// invalid_argument message, naming the offending field.
func TestReadContractUniform(t *testing.T) {
	_, ts := testServer(t)

	const wantMode = "mode must be one of authority, hub"
	const wantBudget = "budget must be an integer in 0..1000"
	const wantFormat = "format must be json, html or dot"

	type env struct {
		Error ErrorInfo `json:"error"`
	}
	surfaces := []string{
		"/v1/query?q=olap&k=5",
		"/v1/explain?q=olap&target=0",
		"/v1/audit?q=olap&target=0",
	}
	for _, s := range surfaces {
		for _, tc := range []struct{ param, want string }{
			{"mode=sideways", wantMode},
			{"mode=combined", wantMode}, // a third mode until hub matched its precision
			{"budget=-1", wantBudget},
			{"budget=1001", wantBudget},
			{"budget=abc", wantBudget},
			{"format=xml", wantFormat}, // used to answer JSON
		} {
			var e env
			if code := getJSON(t, ts.URL+s+"&"+tc.param, &e); code != 400 {
				t.Fatalf("%s&%s: status = %d, want 400", s, tc.param, code)
			}
			if e.Error.Code != CodeInvalidArgument {
				t.Errorf("%s&%s: code = %q", s, tc.param, e.Error.Code)
			}
			if e.Error.Message != tc.want {
				t.Errorf("%s&%s: message = %q, want %q", s, tc.param, e.Error.Message, tc.want)
			}
		}
	}

	// Batch items share the same table, with the item position prefixed.
	body := `{"queries":[{"q":"olap","mode":"hub"},{"q":"olap","k":3,"mode":"combined"}]}`
	resp, err := http.Post(ts.URL+"/v1/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 400 {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"queries[1]: `+wantMode+`"`) {
		t.Errorf("batch error does not carry the shared message for item 1: %s", raw)
	}
}

// TestExplainEnvelope checks the shared explain/audit envelope: the
// subgraph fields and the envelope additions (node, score,
// contributions, stamps) ride together, and the whole body obeys
// budget — arcs, nodes and contributions — while everything that
// describes the whole subgraph does not move with it.
func TestExplainEnvelope(t *testing.T) {
	_, ts := testServer(t)

	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=1", &q); code != 200 || len(q.Results) == 0 {
		t.Fatal("seed query failed")
	}
	url := ts.URL + "/v1/explain?q=olap&target=" + strconv.FormatInt(q.Results[0].Node, 10)

	var e ExplainResponse
	if code := getJSON(t, url, &e); code != 200 {
		t.Fatalf("explain status = %d", code)
	}
	if e.Node != q.Results[0].Node || e.Target != e.Node || e.Score <= 0 || e.Score != e.SubgraphJSON.Score {
		t.Errorf("envelope node/target/score = %d/%d/%v/%v", e.Node, e.Target, e.Score, e.SubgraphJSON.Score)
	}
	if e.Mode != "authority" {
		t.Errorf("explain mode = %q", e.Mode)
	}
	if e.Generation != 1 || e.RatesVersion == 0 {
		t.Errorf("explain stamps = gen %d rv %d", e.Generation, e.RatesVersion)
	}
	if e.Budget != core.DefaultAuditBudget {
		t.Errorf("default budget = %d, want %d", e.Budget, core.DefaultAuditBudget)
	}
	if e.TotalArcs <= e.Budget {
		t.Fatalf("fixture subgraph has %d arcs: too small to clip at budget %d", e.TotalArcs, e.Budget)
	}

	bodies := map[int]ExplainResponse{e.Budget: e}
	for _, budget := range []int{1, 2, 1000} {
		var b ExplainResponse
		if code := getJSON(t, url+"&budget="+strconv.Itoa(budget), &b); code != 200 {
			t.Fatalf("budget=%d explain status = %d", budget, code)
		}
		bodies[budget] = b
	}
	for budget, b := range bodies {
		if b.Budget != budget {
			t.Errorf("budget=%d body reports budget %d", budget, b.Budget)
		}
		// What describes the whole subgraph is the same in every body.
		if b.SubgraphJSON.Score != e.SubgraphJSON.Score || b.Score != e.Score || b.TotalArcs != e.TotalArcs ||
			b.TotalNodes != e.TotalNodes || b.Iterations != e.Iterations || b.Converged != e.Converged {
			t.Errorf("budget=%d moved a whole-subgraph field: %+v vs %+v", budget, b, e)
		}
		want := min(budget, b.TotalArcs)
		if len(b.Arcs) != want || len(b.Contributions) != want {
			t.Errorf("budget=%d: %d arcs, %d contributions, want %d of %d", budget, len(b.Arcs), len(b.Contributions), want, b.TotalArcs)
		}
		// nodes is exactly the target plus the endpoints of arcs.
		shown := map[int64]bool{}
		for _, n := range b.Nodes {
			shown[n.ID] = true
		}
		used := map[int64]bool{b.Target: true}
		for i, a := range b.Arcs {
			used[a.From], used[a.To] = true, true
			if i > 0 && a.Flow > b.Arcs[i-1].Flow {
				t.Fatalf("budget=%d: arcs not ranked by flow at %d", budget, i)
			}
		}
		if len(shown) != len(b.Nodes) || len(shown) != len(used) {
			t.Errorf("budget=%d: %d nodes (%d distinct) for %d arc endpoints + target", budget, len(b.Nodes), len(shown), len(used))
		}
		for v := range used {
			if !shown[v] {
				t.Errorf("budget=%d: node %d missing from nodes", budget, v)
			}
		}
	}
	// An unclipped body is the whole subgraph.
	if full := bodies[1000]; full.TotalArcs <= 1000 && len(full.Nodes) != full.TotalNodes {
		t.Errorf("unclipped body has %d of %d nodes", len(full.Nodes), full.TotalNodes)
	}
	// The arcs a smaller budget shows are a prefix of a larger one's.
	for i, a := range bodies[2].Arcs {
		if a != e.Arcs[i] {
			t.Errorf("budget=2 arc %d = %+v, default budget has %+v", i, a, e.Arcs[i])
		}
	}

	// The determinism contract: at a pinned (generation, ratesVersion),
	// repeated explains are byte-identical.
	_, b1 := getBody(t, url+"&budget=5")
	_, b2 := getBody(t, url+"&budget=5")
	if !bytes.Equal(b1, b2) {
		t.Error("repeated explains are not byte-identical")
	}

	// html and dot stay complete exports, whatever the budget.
	code, dot := getBody(t, url+"&format=dot&budget=1")
	if code != 200 || !bytes.HasPrefix(dot, []byte("digraph")) || bytes.Count(dot, []byte(" -> ")) != e.TotalArcs {
		t.Errorf("format=dot: code %d, %d arcs of %d", code, bytes.Count(dot, []byte(" -> ")), e.TotalArcs)
	}
}

// TestExplainBodyBounded is the size contract behind explain_p50_ms: at
// the benchmark's corpus (dblptop scale 1.0, where one radius-3
// subgraph holds ~10^5 arcs) a default-budget explain body stays under
// 64 kB.
func TestExplainBodyBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("generates dblptop at scale 1.0")
	}
	ds, err := datagen.GenerateDBLP(datagen.DBLPTopConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=1", &q); code != 200 || len(q.Results) == 0 {
		t.Fatal("seed query failed")
	}
	code, body := getBody(t, ts.URL+"/v1/explain?q=olap&target="+strconv.FormatInt(q.Results[0].Node, 10))
	var e ExplainResponse
	if err := json.Unmarshal(body, &e); code != 200 || err != nil {
		t.Fatalf("explain: code %d, %v", code, err)
	}
	if e.TotalArcs < 10000 {
		t.Fatalf("subgraph has %d arcs: not the case this test is about", e.TotalArcs)
	}
	if len(body) >= 64<<10 {
		t.Errorf("explain body is %d bytes for %d arcs / %d nodes, want < 64 kB", len(body), e.TotalArcs, e.TotalNodes)
	}
}

// TestAuditAgreesWithExplain: /v1/audit and /v1/explain for the same
// (q, target, mode, budget) explain the same subgraph, the paper's
// radius-3 one, so at one pinned state they report equal totalArcs,
// totalNodes and score, and byte-equal contributions. The radius binds
// on this fixture: the unbounded subgraph is larger.
func TestAuditAgreesWithExplain(t *testing.T) {
	s, ts := testServer(t)
	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=1", &q); code != 200 || len(q.Results) == 0 {
		t.Fatal("seed query failed")
	}
	target := q.Results[0].Node
	type shared struct {
		TotalArcs     int             `json:"totalArcs"`
		TotalNodes    int             `json:"totalNodes"`
		Score         float64         `json:"score"`
		Generation    uint64          `json:"generation"`
		RatesVersion  uint64          `json:"ratesVersion"`
		Contributions json.RawMessage `json:"contributions"`
	}
	for _, mode := range contractModes(t) {
		pin := s.eng.Pin()
		res, err := pin.RankModeCtx(context.Background(), ir.ParseQuery("olap"), core.Mode(mode))
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := pin.ExplainModeCtx(context.Background(), core.Mode(mode), res, graph.NodeID(target), core.DefaultExplain())
		if err != nil {
			t.Fatal(err)
		}
		unbounded, err := pin.ExplainModeCtx(context.Background(), core.Mode(mode), res, graph.NodeID(target), core.ExplainOptions{MaxIters: 200})
		if err != nil {
			t.Fatal(err)
		}
		if len(unbounded.Arcs) <= len(bounded.Arcs) {
			t.Fatalf("mode=%s: the radius does not bind (%d arcs at L=3, %d unbounded)", mode, len(bounded.Arcs), len(unbounded.Arcs))
		}
		for _, budget := range []int{1, 16, 1000} {
			query := fmt.Sprintf("?q=olap&target=%d&mode=%s&budget=%d", target, mode, budget)
			var e, a shared
			if code := getJSON(t, ts.URL+"/v1/explain"+query, &e); code != 200 {
				t.Fatalf("explain%s: status %d", query, code)
			}
			if code := getJSON(t, ts.URL+"/v1/audit"+query, &a); code != 200 {
				t.Fatalf("audit%s: status %d", query, code)
			}
			if e.Generation != a.Generation || e.RatesVersion != a.RatesVersion {
				t.Fatalf("%s: the two answers ran under different states", query)
			}
			if a.TotalArcs != e.TotalArcs || a.TotalNodes != e.TotalNodes || a.Score != e.Score {
				t.Errorf("%s: audit totals (%d arcs, %d nodes, score %v), explain (%d, %d, %v)",
					query, a.TotalArcs, a.TotalNodes, a.Score, e.TotalArcs, e.TotalNodes, e.Score)
			}
			if a.TotalArcs != len(bounded.Arcs) || a.TotalNodes != len(bounded.Nodes) {
				t.Errorf("%s: audit reports %d arcs, %d nodes; the radius-3 subgraph has %d, %d",
					query, a.TotalArcs, a.TotalNodes, len(bounded.Arcs), len(bounded.Nodes))
			}
			if !bytes.Equal(a.Contributions, e.Contributions) {
				t.Errorf("%s: contributions differ:\naudit   %s\nexplain %s", query, a.Contributions, e.Contributions)
			}
		}
	}
}

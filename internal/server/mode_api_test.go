package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
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

	// hub and combined are first-class: results come back with the mode
	// echoed, on the same generation.
	for _, mode := range []string{"hub", "combined"} {
		var q QueryResponse
		if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5&mode="+mode, &q); code != 200 {
			t.Fatalf("mode=%s status = %d", mode, code)
		}
		if q.Mode != mode {
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

	// Hub audits work; combined is not explainable.
	var hub AuditResponse
	if code := getJSON(t, url+"&mode=hub", &hub); code != 200 {
		t.Fatalf("hub audit status = %d", code)
	}
	if hub.Mode != "hub" {
		t.Errorf("hub audit mode = %q", hub.Mode)
	}
	code, body := getBody(t, url+"&mode=combined")
	if code != 400 || !strings.Contains(string(body), "not explainable") {
		t.Errorf("combined audit: code=%d body=%s", code, body)
	}
}

// TestReadContractUniform checks the ONE validation table: every read
// surface rejects a bad mode/budget with the same invalid_argument
// message, naming the offending field.
func TestReadContractUniform(t *testing.T) {
	_, ts := testServer(t)

	const wantMode = "mode must be one of authority, hub, combined"
	const wantBudget = "budget must be an integer in 0..1000"

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
			{"budget=-1", wantBudget},
			{"budget=1001", wantBudget},
			{"budget=abc", wantBudget},
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
	body := `{"queries":[{"q":"olap","k":3,"mode":"sideways"}]}`
	resp, err := http.Post(ts.URL+"/v1/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 400 {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), wantMode) {
		t.Errorf("batch error does not carry the shared message: %s", raw)
	}
}

// TestExplainEnvelope checks the shared explain/audit envelope: the
// legacy subgraph fields survive unchanged, and the envelope additions
// (node, score, contributions, stamps) ride alongside.
func TestExplainEnvelope(t *testing.T) {
	_, ts := testServer(t)

	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=1", &q); code != 200 || len(q.Results) == 0 {
		t.Fatal("seed query failed")
	}
	target := strconv.FormatInt(q.Results[0].Node, 10)

	var e ExplainResponse
	if code := getJSON(t, ts.URL+"/v1/explain?q=olap&target="+target, &e); code != 200 {
		t.Fatalf("explain status = %d", code)
	}
	// Legacy fields (the embedded SubgraphJSON).
	if len(e.SubgraphJSON.Nodes) == 0 || len(e.SubgraphJSON.Arcs) == 0 {
		t.Fatal("legacy subgraph fields are empty")
	}
	// Envelope additions.
	if e.Node != q.Results[0].Node || e.Score <= 0 {
		t.Errorf("envelope node/score = %d/%v", e.Node, e.Score)
	}
	if e.Mode != "authority" {
		t.Errorf("explain mode = %q", e.Mode)
	}
	if e.Generation != 1 || e.RatesVersion == 0 {
		t.Errorf("explain stamps = gen %d rv %d", e.Generation, e.RatesVersion)
	}
	if len(e.Contributions) == 0 {
		t.Fatal("explain envelope has no contributions")
	}

	// budget truncates ONLY the contributions, never the subgraph.
	var small ExplainResponse
	if code := getJSON(t, ts.URL+"/v1/explain?q=olap&target="+target+"&budget=2", &small); code != 200 {
		t.Fatalf("budgeted explain status = %d", code)
	}
	if len(small.Contributions) > 2 {
		t.Errorf("budget=2 kept %d contributions", len(small.Contributions))
	}
	if len(small.SubgraphJSON.Arcs) != len(e.SubgraphJSON.Arcs) {
		t.Errorf("budget truncated the subgraph: %d vs %d arcs", len(small.SubgraphJSON.Arcs), len(e.SubgraphJSON.Arcs))
	}
}

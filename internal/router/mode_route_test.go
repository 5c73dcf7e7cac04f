package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/obs"
	"authorityflow/internal/server"
)

// TestRouterModeRouting drives the redesigned read contract through
// the coordinator: mode rides the rendezvous key, hub answers proxy
// byte-faithfully, and audits stay deterministic across the router hop.
func TestRouterModeRouting(t *testing.T) {
	f := newFleet(t, 2)

	// mode=hub serves through the router.
	code, body := get(t, f.front.URL+"/v1/query?q=olap&k=5&mode=hub")
	if code != 200 {
		t.Fatalf("mode=hub status = %d: %s", code, body)
	}
	var q server.QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Mode != "hub" || len(q.Results) == 0 {
		t.Errorf("mode=hub answer = mode %q, %d results", q.Mode, len(q.Results))
	}

	// Authority spelling stays byte-identical through the router (the
	// authority rendezvous key is unchanged, so ownership never moves).
	_, b1 := get(t, f.front.URL+"/v1/query?q=olap&k=5")
	_, b2 := get(t, f.front.URL+"/v1/query?q=olap&k=5&mode=authority")
	if !bytes.Equal(b1, b2) {
		t.Error("mode=authority body differs from default through the router")
	}

	// The same raw query in different modes may land on different
	// replicas (the mode is part of the rendezvous key); both keys must
	// be stable.
	if routeKeyMode("olap", core.ModeHub) == routeKeyMode("olap", core.ModeAuthority) {
		t.Error("hub key must differ from the authority key")
	}
	if routeKeyMode("olap", core.ModeAuthority) != routeKey("olap") {
		t.Error("authority keys must keep their pre-mode spelling")
	}
}

// TestRouterAuditDeterminism: audits and explains proxied through the
// router stay byte-identical at a pinned state, and the explain body
// that crosses the hop is the budgeted one.
func TestRouterAuditDeterminism(t *testing.T) {
	f := newFleet(t, 2)

	code, body := get(t, f.front.URL+"/v1/query?q=olap&k=1")
	if code != 200 {
		t.Fatalf("seed query status = %d", code)
	}
	var q server.QueryResponse
	if err := json.Unmarshal(body, &q); err != nil || len(q.Results) == 0 {
		t.Fatalf("seed query: err=%v results=%d", err, len(q.Results))
	}

	url := fmt.Sprintf("%s/v1/audit?q=olap&target=%d&budget=8", f.front.URL, q.Results[0].Node)
	c1, a1 := get(t, url)
	c2, a2 := get(t, url)
	if c1 != 200 || c2 != 200 {
		t.Fatalf("audit statuses = %d, %d: %s", c1, c2, a1)
	}
	if !bytes.Equal(a1, a2) {
		t.Error("router-served audits are not byte-identical at a pinned generation")
	}
	var a server.AuditResponse
	if err := json.Unmarshal(a1, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Contributions) == 0 || a.Generation == 0 {
		t.Errorf("audit through router = %d contributions, gen %d", len(a.Contributions), a.Generation)
	}

	explainURL := fmt.Sprintf("%s/v1/explain?q=olap&target=%d&budget=8", f.front.URL, q.Results[0].Node)
	c1, e1 := get(t, explainURL)
	c2, e2 := get(t, explainURL)
	if c1 != 200 || c2 != 200 {
		t.Fatalf("explain statuses = %d, %d: %s", c1, c2, e1)
	}
	if !bytes.Equal(e1, e2) {
		t.Error("router-served explains are not byte-identical at a pinned generation")
	}
	var e server.ExplainResponse
	if err := json.Unmarshal(e1, &e); err != nil {
		t.Fatal(err)
	}
	if e.Budget != 8 || len(e.Arcs) != 8 || e.TotalArcs <= 8 {
		t.Errorf("explain through router = budget %d, %d arcs of %d", e.Budget, len(e.Arcs), e.TotalArcs)
	}

	// Hub audits route too.
	hubURL := fmt.Sprintf("%s/v1/audit?q=olap&target=%d&mode=hub", f.front.URL, q.Results[0].Node)
	if code, body := get(t, hubURL); code != 200 {
		t.Fatalf("hub audit through router = %d: %s", code, body)
	}
}

// TestRouterContractMirrorsServer: the router rejects contract
// violations itself — before picking a replica — with the exact
// message the replicas use (one validation table, exported by the
// server package).
func TestRouterContractMirrorsServer(t *testing.T) {
	f := newFleet(t, 2)

	const wantMode = "mode must be one of authority, hub"
	const wantBudget = "budget must be an integer in 0..1000"
	const wantFormat = "format must be json, html or dot"
	type env struct {
		Error server.ErrorInfo `json:"error"`
	}
	for _, tc := range []struct{ path, want string }{
		{"/v1/query?q=olap&mode=sideways", wantMode},
		{"/v1/audit?q=olap&target=0&mode=sideways", wantMode},
		{"/v1/explain?q=olap&target=0&budget=9999", wantBudget},
		{"/v1/explain?q=olap&target=0&format=xml", wantFormat},
	} {
		code, body := get(t, f.front.URL+tc.path)
		if code != 400 {
			t.Fatalf("%s: status = %d", tc.path, code)
		}
		var e env
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Error.Code != server.CodeInvalidArgument || e.Error.Message != tc.want {
			t.Errorf("%s: error = %q %q, want %q", tc.path, e.Error.Code, e.Error.Message, tc.want)
		}
	}

	// Batch items: mode/budget travel byte-faithfully to the owning
	// replicas, and bad items are rejected router-side with the shared
	// message.
	code, body := postJSON(t, f.front.URL+"/v1/query/batch", server.BatchQueryRequest{
		Queries: []server.BatchQueryItem{
			{Q: "olap", K: 3},
			{Q: "olap", K: 3, Mode: "hub", Budget: 5},
			{Q: "mining", K: 3, Mode: "hub"},
		},
	})
	if code != 200 {
		t.Fatalf("batch status = %d: %s", code, body)
	}
	var br server.BatchQueryResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Answers) != 3 {
		t.Fatalf("batch answers = %d", len(br.Answers))
	}
	if br.Answers[0].Mode != "" || br.Answers[1].Mode != "hub" || br.Answers[2].Mode != "hub" {
		t.Errorf("batch modes = %q, %q, %q", br.Answers[0].Mode, br.Answers[1].Mode, br.Answers[2].Mode)
	}
	code, body = postJSON(t, f.front.URL+"/v1/query/batch", server.BatchQueryRequest{
		Queries: []server.BatchQueryItem{{Q: "olap", K: 3, Mode: "sideways"}},
	})
	if code != 400 || !strings.Contains(string(body), wantMode) {
		t.Errorf("bad batch item = %d: %s", code, body)
	}
}

// TestRouterRejectsCombined: mode=combined — a third mode until hub
// matched its precision — is one 400 on every read surface, single or
// batch item (its index named), and the routed rejection is the bytes a
// replica answers when asked directly.
func TestRouterRejectsCombined(t *testing.T) {
	f := newFleet(t, 2)
	do := func(method, url, body string) (int, []byte) {
		t.Helper()
		hr, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set(obs.RequestIDHeader, "rejects-combined") // the envelope echoes it
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		return readBody(t, resp)
	}
	for _, tc := range []struct{ method, path, body, want string }{
		{http.MethodGet, "/v1/query?q=olap&mode=combined", "", "mode must be one of authority, hub"},
		{http.MethodGet, "/v1/explain?q=olap&target=0&mode=combined", "", "mode must be one of authority, hub"},
		{http.MethodGet, "/v1/audit?q=olap&target=0&mode=combined", "", "mode must be one of authority, hub"},
		{http.MethodPost, "/v1/query/batch", `{"queries":[{"q":"olap"},{"q":"cube","mode":"hub"},{"q":"olap","mode":"combined"}]}`,
			"queries[2]: mode must be one of authority, hub"},
	} {
		code, routed := do(tc.method, f.front.URL+tc.path, tc.body)
		var env server.ErrorEnvelope
		if err := json.Unmarshal(routed, &env); err != nil {
			t.Fatal(err)
		}
		if code != 400 || env.Error.Code != server.CodeInvalidArgument || env.Error.Message != tc.want {
			t.Errorf("%s: %d %q %q, want 400 invalid_argument %q", tc.path, code, env.Error.Code, env.Error.Message, tc.want)
		}
		if codeD, direct := do(tc.method, f.urls[0]+tc.path, tc.body); codeD != code || !bytes.Equal(routed, direct) {
			t.Errorf("%s: routed rejection differs from a replica's\nrouted: %d %s\ndirect: %d %s", tc.path, code, routed, codeD, direct)
		}
	}
}

package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"authorityflow/internal/server"
)

// stubReplica answers /v1/healthz at (generation 1, ratesVersion 1) and
// /v1/query with a fixed body claiming (generation 3, version 7) — a
// write that landed behind the router's back — naming that state in the
// two response headers only when withHeaders is set.
func stubReplica(t *testing.T, withHeaders bool) (*Router, *httptest.Server, string) {
	t.Helper()
	const answer = `{"query":"[olap:1.00]","baseSet":1,"iterations":1,"version":7,"generation":3,"cache":"result","results":[]}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/v1/healthz" {
			io.WriteString(w, `{"status":"ok","generation":1,"ratesVersion":1}`)
			return
		}
		if withHeaders {
			w.Header().Set(server.HeaderGeneration, "3")
			w.Header().Set(server.HeaderRatesVersion, "7")
		}
		io.WriteString(w, answer)
	}))
	t.Cleanup(ts.Close)
	rt, err := New([]string{ts.URL}, Options{Timeout: 5 * time.Second, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.CheckNow(context.Background())
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front, answer
}

// TestObserveFromHeaders: what a /v1/query answer proves about its
// replica is read from the two state headers — the replica's known
// state and the fleet floor rise to it exactly as the body probe used to
// raise them — and an answer without them teaches nothing and breaks
// nothing: it is forwarded whole and the health poll's knowledge stands.
func TestObserveFromHeaders(t *testing.T) {
	for _, withHeaders := range []bool{true, false} {
		rt, front, answer := stubReplica(t, withHeaders)
		rp := rt.replicas[0]
		if gen, rv := rt.Floor(); gen != 1 || rv != 1 || rp.gen.Load() != 1 || rp.rv.Load() != 1 {
			t.Fatalf("after the health sweep: floor (%d,%d), replica (%d,%d), want all 1", gen, rv, rp.gen.Load(), rp.rv.Load())
		}
		resp, err := http.Get(front.URL + "/v1/query?q=olap")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != answer || resp.Header.Get(HeaderServedBy) != rp.url {
			t.Fatalf("headers=%t: routed answer = %d %q served by %q", withHeaders, resp.StatusCode, body, resp.Header.Get(HeaderServedBy))
		}
		wantGen, wantRV := uint64(1), uint64(1)
		if withHeaders {
			wantGen, wantRV = 3, 7
			if resp.Header.Get(server.HeaderGeneration) != "3" || resp.Header.Get(server.HeaderRatesVersion) != "7" {
				t.Errorf("the state headers were not forwarded to the client: %v", resp.Header)
			}
		}
		if gen, rv := rt.Floor(); gen != wantGen || rv != wantRV {
			t.Errorf("headers=%t: floor = (%d,%d), want (%d,%d)", withHeaders, gen, rv, wantGen, wantRV)
		}
		if rp.gen.Load() != wantGen || rp.rv.Load() != wantRV || !rp.up.Load() {
			t.Errorf("headers=%t: replica known at (%d,%d) up=%t, want (%d,%d) up", withHeaders, rp.gen.Load(), rp.rv.Load(), rp.up.Load(), wantGen, wantRV)
		}
	}
}

// TestRoutedStateHeadersMatchBody: a real replica's answer reaches the
// client through the router with both state headers, equal to its body.
func TestRoutedStateHeadersMatchBody(t *testing.T) {
	f := newFleet(t, 2)
	for i := 0; i < 3; i++ { // computed, rendered hit, stored-body hit
		resp, err := http.Get(f.front.URL + "/v1/query?q=olap&k=5")
		if err != nil {
			t.Fatal(err)
		}
		var qr server.QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("ask %d: status %d, decode %v", i, resp.StatusCode, err)
		}
		if g, v := resp.Header.Get(server.HeaderGeneration), resp.Header.Get(server.HeaderRatesVersion); g != strconv.FormatUint(qr.Generation, 10) || v != strconv.FormatUint(qr.Version, 10) {
			t.Errorf("ask %d (cache=%s): headers (%q,%q), body (%d,%d)", i, qr.Cache, g, v, qr.Generation, qr.Version)
		}
	}
}

// TestRoutedJSONCarriesContentLength: the router has every body whole
// before it answers — forwarded or merged — so none goes out chunked.
func TestRoutedJSONCarriesContentLength(t *testing.T) {
	f := newFleet(t, 2)
	var items []string
	for _, term := range []string{"olap", "xml", "mining", "search", "query", "web",
		"data", "index", "cube", "stream", "graph", "join"} {
		items = append(items, fmt.Sprintf(`{"q":%q}`, term))
	}
	batch := `{"queries":[` + strings.Join(items, ",") + `]}`
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/query?q=olap&k=10", ""},
		{http.MethodPost, "/v1/query/batch", batch},
		{http.MethodGet, "/v1/query?q=olap&mode=sideways", ""}, // the router's own 400
	} {
		req, err := http.NewRequest(tc.method, f.front.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(resp.TransferEncoding) != 0 || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) || len(body) == 0 {
			t.Errorf("%s %s: Transfer-Encoding %v, Content-Length %q, body %d bytes",
				tc.method, tc.path, resp.TransferEncoding, resp.Header.Get("Content-Length"), len(body))
		}
	}
}

// TestWriteJSONEncodeFailure is the replica-side test of the same name,
// held to the router's middleware around the one writer: a value
// encoding/json rejects is a whole 500 internal envelope with the
// router's request ID for this response.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rt, _, _ := stubReplica(t, true)
	h := rt.robs.mw.Wrap("/nan", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, server.BatchQueryResponse{Answers: []server.QueryResponse{
			{Results: []server.Result{{Score: math.Inf(1)}}}}})
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nan", nil))
	var env server.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not one JSON envelope: %v: %s", err, rec.Body.Bytes())
	}
	if rec.Code != http.StatusInternalServerError || env.Error.Code != server.CodeInternal {
		t.Errorf("status %d code %q, want 500 %q", rec.Code, env.Error.Code, server.CodeInternal)
	}
	if id := rec.Header().Get("X-Request-ID"); id == "" || env.Error.RequestID != id {
		t.Errorf("envelope request ID %q, response header %q", env.Error.RequestID, id)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q for a %d-byte body", cl, rec.Body.Len())
	}
}

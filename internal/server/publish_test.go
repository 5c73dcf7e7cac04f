package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func postRates(t *testing.T, url string, req RatesPublishRequest) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/rates", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRatesPublish: the fleet-propagation write lands through the CAS,
// bumps the version by one, and GET /v1/rates reads back exactly the
// published vector.
func TestRatesPublish(t *testing.T) {
	_, ts := testServer(t)

	var before RatesResponse
	if code := getJSON(t, ts.URL+"/v1/rates", &before); code != 200 {
		t.Fatalf("GET rates = %d", code)
	}
	vector := append([]float64(nil), before.Vector...)
	for i := range vector {
		vector[i] *= 0.9
	}

	code, body := postRates(t, ts.URL, RatesPublishRequest{Vector: vector, IfVersion: before.Version})
	if code != 200 {
		t.Fatalf("publish = %d: %s", code, body)
	}
	var pub RatesResponse
	if err := json.Unmarshal(body, &pub); err != nil {
		t.Fatal(err)
	}
	if pub.Version != before.Version+1 {
		t.Errorf("published version = %d, want %d", pub.Version, before.Version+1)
	}

	var after RatesResponse
	getJSON(t, ts.URL+"/v1/rates", &after)
	if after.Version != pub.Version {
		t.Errorf("read-back version = %d, want %d", after.Version, pub.Version)
	}
	for i := range vector {
		if after.Vector[i] != vector[i] {
			t.Errorf("vector[%d] = %v, want %v", i, after.Vector[i], vector[i])
		}
	}

	// A zero IfVersion means "whatever is current" — lands again.
	if code, body = postRates(t, ts.URL, RatesPublishRequest{Vector: vector}); code != 200 {
		t.Fatalf("unguarded publish = %d: %s", code, body)
	}
}

// TestRatesPublishConflicts: both CAS axes answer 409 with the
// envelope the single-node machinery defines — a stale version token
// returns the winning version, a stale generation token returns the
// served generation.
func TestRatesPublishConflicts(t *testing.T) {
	_, ts := testServer(t)

	var cur RatesResponse
	getJSON(t, ts.URL+"/v1/rates", &cur)

	// Version axis: a token one publish behind loses.
	code, body := postRates(t, ts.URL, RatesPublishRequest{Vector: cur.Vector, IfVersion: cur.Version})
	if code != 200 {
		t.Fatalf("setup publish = %d: %s", code, body)
	}
	code, body = postRates(t, ts.URL, RatesPublishRequest{Vector: cur.Vector, IfVersion: cur.Version})
	if code != 409 {
		t.Fatalf("stale-version publish = %d, want 409: %s", code, body)
	}
	var env ConflictEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeVersionConflict {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeVersionConflict)
	}
	if env.Version != cur.Version+1 {
		t.Errorf("winning version = %d, want %d", env.Version, cur.Version+1)
	}

	// Generation axis: asserting a generation the server is not serving.
	code, body = postRates(t, ts.URL, RatesPublishRequest{Vector: cur.Vector, IfGeneration: 42})
	if code != 409 {
		t.Fatalf("stale-generation publish = %d, want 409: %s", code, body)
	}
	var swapEnv SwapConflictEnvelope
	if err := json.Unmarshal(body, &swapEnv); err != nil {
		t.Fatal(err)
	}
	if swapEnv.Error.Code != CodeVersionConflict || swapEnv.Generation != 1 {
		t.Errorf("generation conflict = %+v, want code %q generation 1", swapEnv, CodeVersionConflict)
	}
}

// TestRatesPublishRejections: malformed publications are 400s with the
// v1 envelope, and none of them advance the version.
func TestRatesPublishRejections(t *testing.T) {
	_, ts := testServer(t)
	var cur RatesResponse
	getJSON(t, ts.URL+"/v1/rates", &cur)

	cases := []struct {
		name string
		body string
	}{
		{"bad JSON", "{"},
		{"no vector", `{}`},
		{"wrong length", `{"vector":[0.1]}`},
		{"negative rate", mutateVector(t, cur.Vector, -0.5)},
		{"sum above one", mutateVector(t, cur.Vector, 2.0)},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/rates", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status = %d, want 400: %s", tc.name, resp.StatusCode, raw)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != CodeInvalidArgument {
			t.Errorf("%s: envelope = %s", tc.name, raw)
		}
	}

	var after RatesResponse
	getJSON(t, ts.URL+"/v1/rates", &after)
	if after.Version != cur.Version {
		t.Errorf("rejected publishes advanced the version: %d -> %d", cur.Version, after.Version)
	}
}

// mutateVector renders a publish body with every rate forced to v —
// invalid either per-rate (negative) or per-node (outgoing sum > 1).
func mutateVector(t *testing.T, vector []float64, v float64) string {
	t.Helper()
	bad := make([]float64, len(vector))
	for i := range bad {
		bad[i] = v
	}
	b, err := json.Marshal(RatesPublishRequest{Vector: bad})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRatesPublishClient drives the same endpoint through the typed
// client: success returns the published state, a lost race decodes
// into an *APIError with IsConflict and the winning version.
func TestRatesPublishClient(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	cur, err := c.Rates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := c.RatesPublish(ctx, RatesPublishRequest{Vector: cur.Vector, IfVersion: cur.Version})
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version != cur.Version+1 {
		t.Errorf("version = %d, want %d", pub.Version, cur.Version+1)
	}

	_, err = c.RatesPublish(ctx, RatesPublishRequest{Vector: cur.Vector, IfVersion: cur.Version})
	apiErr, ok := err.(*APIError)
	if !ok || !apiErr.IsConflict() {
		t.Fatalf("stale publish error = %v, want a conflict APIError", err)
	}
	if apiErr.Version != pub.Version {
		t.Errorf("winning version = %d, want %d", apiErr.Version, pub.Version)
	}
}

package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/rank"
	"authorityflow/internal/server"
)

// newProfileFleet is newFleet with the personalization tier enabled on
// every replica (each with its own profile directory — profile records
// are replica-local, which is the property these tests exercise).
func newProfileFleet(t testing.TB, n int) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		cfg := datagen.DBLPTopConfig().Scale(0.02)
		cfg.Seed = 4
		ds, err := datagen.GenerateDBLP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}},
			server.WithCache(8<<20, 0), server.WithProfiles(t.TempDir(), 0))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, s)
		f.backends = append(f.backends, ts)
		f.urls = append(f.urls, ts.URL)
	}
	rt, err := New(f.urls, Options{Timeout: 10 * time.Second, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	f.rt = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// servedBy issues a request through the router and returns the
// X-Afq-Router-Replica header alongside status and body.
func servedBy(t testing.TB, method, url string, body string) (int, string, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(HeaderServedBy), raw
}

// TestProfileOwnerStickiness: every request carrying a given profile id
// — CRUD, personalized query, training — lands on the SAME replica, and
// distinct ids spread across the fleet.
func TestProfileOwnerStickiness(t *testing.T) {
	f := newProfileFleet(t, 3)
	owners := make(map[string]bool)
	for i := 0; i < 9; i++ {
		id := fmt.Sprintf("user-%d", i)
		mix := `{"mixture":{"streaming":1}}`

		code, createdBy, body := servedBy(t, http.MethodPut, f.front.URL+"/v1/profile/"+id, mix)
		if code != 200 {
			t.Fatalf("PUT %s = %d: %s", id, code, body)
		}
		if createdBy == "" {
			t.Fatalf("PUT %s carried no %s header", id, HeaderServedBy)
		}
		owners[createdBy] = true

		code, readBy, body := servedBy(t, http.MethodGet, f.front.URL+"/v1/profile/"+id, "")
		if code != 200 {
			t.Fatalf("GET %s = %d: %s", id, code, body)
		}
		if readBy != createdBy {
			t.Fatalf("profile %s read from %s but created on %s", id, readBy, createdBy)
		}

		code, queriedBy, body := servedBy(t, http.MethodGet,
			f.front.URL+"/v1/query?q=olap&k=5&profile="+id, "")
		if code != 200 {
			t.Fatalf("personalized query %s = %d: %s", id, code, body)
		}
		if queriedBy != createdBy {
			t.Fatalf("profile %s query served by %s, record lives on %s", id, queriedBy, createdBy)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if !qr.Personalized || qr.Profile != id {
			t.Fatalf("personalized answer = %+v", qr)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("9 profiles all owned by one replica of 3: %v", owners)
	}
}

// TestProfileTrainingStaysLocal: training through the router mutates
// only the owner's profile and publishes no rates version anywhere.
func TestProfileTrainingStaysLocal(t *testing.T) {
	f := newProfileFleet(t, 3)
	const id = "trainee"
	code, createdBy, body := servedBy(t, http.MethodPut, f.front.URL+"/v1/profile/"+id,
		`{"mixture":{"streaming":1}}`)
	if code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}

	// A feedback target from a fleet query.
	code, _, body = servedBy(t, http.MethodGet, f.front.URL+"/v1/query?q=olap&k=3", "")
	if code != 200 {
		t.Fatalf("seed query = %d", code)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil || len(qr.Results) == 0 {
		t.Fatalf("seed query: %v (%d results)", err, len(qr.Results))
	}
	fb := fmt.Sprintf("%d", qr.Results[0].Node)

	code, trainedBy, body := servedBy(t, http.MethodGet,
		f.front.URL+"/v1/reformulate?q=olap&feedback="+fb+"&mode=both&profile="+id, "")
	if code != 200 {
		t.Fatalf("profile reformulate = %d: %s", code, body)
	}
	if trainedBy != createdBy {
		t.Fatalf("training served by %s, record lives on %s", trainedBy, createdBy)
	}
	var rr server.ReformulateResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Profile != id || rr.ProfileRev == 0 {
		t.Fatalf("training response = %+v", rr)
	}

	// No replica's rates version moved.
	for i, s := range f.servers {
		if v := s.Engine().RatesVersion(); v != 1 {
			t.Fatalf("replica %d rates version = %d after profile training, want 1", i, v)
		}
	}
}

// TestProfileOwnerDownNoFailover: with the owner down, profile traffic
// sheds (503 naming the owner) instead of failing over onto a replica
// that has no record.
func TestProfileOwnerDownNoFailover(t *testing.T) {
	f := newProfileFleet(t, 3)
	const id = "orphan"
	code, createdBy, body := servedBy(t, http.MethodPut, f.front.URL+"/v1/profile/"+id,
		`{"mixture":{"streaming":1}}`)
	if code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}

	for _, ts := range f.backends {
		if ts.URL == createdBy {
			ts.Close()
		}
	}
	f.rt.CheckNow(t.Context())

	for _, probe := range []string{
		"/v1/profile/" + id,
		"/v1/query?q=olap&k=5&profile=" + id,
	} {
		code, _, body := servedBy(t, http.MethodGet, f.front.URL+probe, "")
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s with owner down = %d: %s", probe, code, body)
		}
		var env server.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != server.CodeShed || !strings.Contains(env.Error.Message, createdBy) {
			t.Fatalf("shed envelope = %+v, want code %s naming %s", env, server.CodeShed, createdBy)
		}
	}

	// The rest of the fleet still answers global traffic.
	code, _, _ = servedBy(t, http.MethodGet, f.front.URL+"/v1/query?q=olap&k=5", "")
	if code != 200 {
		t.Fatalf("global query with one replica down = %d", code)
	}
}

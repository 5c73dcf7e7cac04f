package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/profile"
	"authorityflow/internal/rank"
)

// profileTestServer builds a personalization-enabled server (blends and
// base ranks read the serving cache's term vectors) with profiles
// persisted under a test-scoped directory.
func profileTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}},
		WithCache(8<<20, 0), WithProfiles(t.TempDir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func putProfile(t *testing.T, base, id string, req ProfileUpdateRequest) ProfileResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	code, _, raw := fetch(t, http.MethodPut, base+"/v1/profile/"+id, strings.NewReader(string(body)))
	if code != 200 {
		t.Fatalf("PUT /v1/profile/%s = %d: %s", id, code, raw)
	}
	var resp ProfileResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode profile response: %v", err)
	}
	return resp
}

func TestProfileCRUD(t *testing.T) {
	_, ts := profileTestServer(t)

	// Create.
	created := putProfile(t, ts.URL, "alice", ProfileUpdateRequest{
		Mixture: map[string]float64{"xml": 0.7, "mining": 0.3},
	})
	if created.ID != "alice" || len(created.Mixture) != 2 || created.Rev != 1 {
		t.Fatalf("created = %+v", created)
	}

	// Read back.
	var got ProfileResponse
	if code := getJSON(t, ts.URL+"/v1/profile/alice", &got); code != 200 {
		t.Fatalf("GET = %d", code)
	}
	if got.Mixture["xml"] != 0.7 || got.Mixture["mining"] != 0.3 {
		t.Fatalf("round-trip mixture = %v", got.Mixture)
	}

	// Update replaces the mixture but keeps identity.
	updated := putProfile(t, ts.URL, "alice", ProfileUpdateRequest{
		Mixture: map[string]float64{"database": 1},
	})
	if len(updated.Mixture) != 1 || updated.Mixture["database"] != 1 {
		t.Fatalf("updated mixture = %v", updated.Mixture)
	}

	// Delete, then the id is gone with the typed error code.
	code, _, _ := fetch(t, http.MethodDelete, ts.URL+"/v1/profile/alice", nil)
	if code != 204 {
		t.Fatalf("DELETE = %d", code)
	}
	code, _, raw := fetch(t, http.MethodGet, ts.URL+"/v1/profile/alice", nil)
	if code != 404 {
		t.Fatalf("GET after delete = %d", code)
	}
	env := decodeEnvelope(t, raw)
	if env.Error.Code != CodeProfileNotFound {
		t.Fatalf("error code = %q, want %q", env.Error.Code, CodeProfileNotFound)
	}
	if !strings.Contains(env.Error.Message, "alice") {
		t.Fatalf("message does not name the id: %q", env.Error.Message)
	}
}

func TestProfileBadID(t *testing.T) {
	_, ts := profileTestServer(t)
	for _, id := range []string{"a b", "a/../b", strings.Repeat("x", 129)} {
		code, _, _ := fetch(t, http.MethodGet, ts.URL+"/v1/profile/"+id, nil)
		if code != 400 && code != 404 {
			// Path-traversal ids are rejected at validation (400); the Go
			// mux may canonicalize some shapes first (301→404 under the
			// test client). Either way, no profile handler runs them.
			t.Fatalf("GET bad id %q = %d", id, code)
		}
	}
	code, _, raw := fetch(t, http.MethodGet, ts.URL+"/v1/query?q=olap&profile=a+b", nil)
	if code != 400 {
		t.Fatalf("query with bad profile id = %d: %s", code, raw)
	}
}

func TestProfileQueryNotFound(t *testing.T) {
	_, ts := profileTestServer(t)
	code, _, raw := fetch(t, http.MethodGet, ts.URL+"/v1/query?q=olap&k=5&profile=ghost", nil)
	if code != 404 {
		t.Fatalf("status = %d: %s", code, raw)
	}
	if env := decodeEnvelope(t, raw); env.Error.Code != CodeProfileNotFound {
		t.Fatalf("code = %q", env.Error.Code)
	}
}

func TestProfileDisabled(t *testing.T) {
	_, ts := testServer(t) // no WithProfiles
	for _, url := range []string{
		ts.URL + "/v1/profile/alice",
		ts.URL + "/v1/query?q=olap&profile=alice",
	} {
		code, _, raw := fetch(t, http.MethodGet, url, nil)
		if code != 403 {
			t.Fatalf("%s = %d: %s", url, code, raw)
		}
		if env := decodeEnvelope(t, raw); !strings.Contains(env.Error.Message, "-profile-dir") {
			t.Fatalf("message should point at the flag: %q", env.Error.Message)
		}
	}
	// An empty profile dir is refused, not served from memory alone.
	ds, err := datagen.GenerateDBLP(datagen.DBLPTopConfig().Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ds, core.Config{}, WithProfiles("", 0)); err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("WithProfiles(\"\") = %v, want an error naming Dir", err)
	}
}

// TestProfilePersonalizedQuery is the serving-path acceptance check:
// a trained mixture actually changes the ranking, the answer is
// labelled with its source, and the second request rides the answer
// LRU.
func TestProfilePersonalizedQuery(t *testing.T) {
	_, ts := profileTestServer(t)
	// "streaming" is a panel member at this corpus scale (top-64 DF);
	// a mixture term outside the panel would degrade to the global path.
	putProfile(t, ts.URL, "xmlhead", ProfileUpdateRequest{
		Mixture: map[string]float64{"streaming": 1},
	})

	var global QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=10", &global); code != 200 {
		t.Fatalf("global query = %d", code)
	}

	var personal QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=10&profile=xmlhead", &personal); code != 200 {
		t.Fatalf("personalized query = %d", code)
	}
	if !personal.Personalized || personal.Profile != "xmlhead" {
		t.Fatalf("answer not labelled personalized: %+v", personal)
	}
	if personal.Cache != "combined" {
		t.Fatalf("first personalized answer source = %q, want combined", personal.Cache)
	}
	if personal.Generation != global.Generation {
		t.Fatalf("generation mismatch: %d vs %d", personal.Generation, global.Generation)
	}
	differ := len(personal.Results) != len(global.Results)
	for i := 0; !differ && i < len(personal.Results); i++ {
		if personal.Results[i].Node != global.Results[i].Node ||
			personal.Results[i].Score != global.Results[i].Score {
			differ = true
		}
	}
	if !differ {
		t.Fatal("personalized ranking is identical to the global ranking")
	}

	// Second request: answer LRU hit, identical body fields.
	var again QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=10&profile=xmlhead", &again); code != 200 {
		t.Fatalf("second personalized query = %d", code)
	}
	if again.Cache != "hit" {
		t.Fatalf("second answer source = %q, want hit", again.Cache)
	}
	if len(again.Results) != len(personal.Results) || again.Results[0] != personal.Results[0] {
		t.Fatalf("cached answer differs from computed answer")
	}

	// An empty profile carries no usable mixture: the answer falls back
	// to the global path and says so. The global repeat before it is a
	// result hit, which keeps its rendered body with the entry; the
	// blank profile's answer comes from that entry but is rendered as
	// the profile's, not answered with the global body.
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=10", &global); code != 200 || global.Cache != "result" {
		t.Fatalf("global repeat = %d, source %q", code, global.Cache)
	}
	putProfile(t, ts.URL, "blank", ProfileUpdateRequest{})
	var blank QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=10&profile=blank", &blank); code != 200 {
		t.Fatalf("blank-profile query = %d", code)
	}
	if blank.Personalized || blank.Cache != "global" || blank.Profile != "blank" {
		t.Fatalf("blank profile answer = source %q personalized %t profile %q", blank.Cache, blank.Personalized, blank.Profile)
	}

	// Metrics carry the new families.
	code, _, raw := fetch(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, family := range []string{
		"afq_profile_query_outcome_total",
		"afq_profile_combines_total",
		"afq_profile_updates_total",
		"afq_profile_store_bytes",
	} {
		if !strings.Contains(string(raw), family) {
			t.Errorf("metrics exposition missing %s", family)
		}
	}
	// The panel holds no vectors and is never rebuilt: nothing to count.
	for _, family := range []string{
		"afq_profile_basis_builds_total",
		"afq_profile_basis_bytes",
		"afq_profile_basis_rates_version",
	} {
		if strings.Contains(string(raw), family) {
			t.Errorf("metrics exposition still carries %s", family)
		}
	}
}

// TestProfileReformulate: feedback with profile= trains the caller's
// mixture and publishes NOTHING globally: the response's rates are the
// published ones it ran under.
func TestProfileReformulate(t *testing.T) {
	_, ts := profileTestServer(t)
	putProfile(t, ts.URL, "bob", ProfileUpdateRequest{
		Mixture: map[string]float64{"mining": 1},
	})

	var before RatesResponse
	if code := getJSON(t, ts.URL+"/v1/rates", &before); code != 200 {
		t.Fatalf("rates = %d", code)
	}

	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5", &q); code != 200 || len(q.Results) == 0 {
		t.Fatalf("seed query = %d (%d results)", code, len(q.Results))
	}
	fb := strconv.FormatInt(q.Results[0].Node, 10)

	var ref ReformulateResponse
	url := ts.URL + "/v1/reformulate?q=olap&k=5&feedback=" + fb + "&mode=both&profile=bob"
	if code := getJSON(t, url, &ref); code != 200 {
		t.Fatalf("profile reformulate = %d", code)
	}
	if ref.Profile != "bob" || ref.ProfileRev == 0 {
		t.Fatalf("response not profile-stamped: %+v", ref)
	}
	if ref.Version != before.Version || ref.Rates != before.Rates {
		t.Fatalf("profile reformulate answered rates %q version %d, published %q version %d",
			ref.Rates, ref.Version, before.Rates, before.Version)
	}
	if len(ref.Results) == 0 {
		t.Fatal("profile reformulate returned no personalized results")
	}

	var after RatesResponse
	if code := getJSON(t, ts.URL+"/v1/rates", &after); code != 200 {
		t.Fatalf("rates = %d", code)
	}
	if after.Version != before.Version || after.Rates != before.Rates {
		t.Fatalf("profile training leaked into global rates: %+v → %+v", before, after)
	}

	var p ProfileResponse
	if code := getJSON(t, ts.URL+"/v1/profile/bob", &p); code != 200 {
		t.Fatalf("profile get = %d", code)
	}
	if p.Rev != ref.ProfileRev || p.Rev != 2 || p.TrainedRatesVersion != before.Version {
		t.Fatalf("profile did not record training: %+v", p)
	}
}

// TestClientProfileMethods covers the typed client's profile legs: an
// update, the personalized query twin, and profile_not_found decoding
// into *APIError.
func TestClientProfileMethods(t *testing.T) {
	_, ts := profileTestServer(t)
	c := NewClient(ts.URL, nil)
	ctx := t.Context()

	if _, err := c.QueryProfile(ctx, "olap", 5, "nobody"); err == nil {
		t.Fatal("QueryProfile on unknown id should fail")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != CodeProfileNotFound {
			t.Fatalf("err = %v, want 404 %s", err, CodeProfileNotFound)
		}
	}

	created, err := c.ProfileUpdate(ctx, "carol", ProfileUpdateRequest{
		Mixture: map[string]float64{"streaming": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "carol" || created.Mixture["streaming"] != 1 {
		t.Fatalf("created = %+v", created)
	}

	personal, err := c.QueryProfile(ctx, "olap", 5, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if !personal.Personalized || personal.Profile != "carol" {
		t.Fatalf("personalized answer = %+v", personal)
	}
}

// TestProfileWritesHammer races profile updates and profile-scoped
// trainings on one id, each followed by a personalized query that fills
// the answer cache under the revision it saw (run under -race in CI).
// Every write must get its own revision — the answer cache keys on it,
// so two mixtures stored under one rev would let the second be served
// the first's answers — the final rev counts every write, and the
// personalized answer afterwards is a fresh blend of the stored mixture.
func TestProfileWritesHammer(t *testing.T) {
	s, ts := profileTestServer(t)
	putProfile(t, ts.URL, "hammer", ProfileUpdateRequest{Mixture: map[string]float64{"streaming": 1}})
	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5", &q); code != 200 || len(q.Results) == 0 {
		t.Fatalf("seed query = %d", code)
	}
	fb := strconv.FormatInt(q.Results[0].Node, 10)

	const puts, trains = 24, 8
	revs := make(chan uint64, puts+trains)
	var wg sync.WaitGroup
	for i := 0; i < puts+trains; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i < puts {
				body, _ := json.Marshal(ProfileUpdateRequest{Mixture: map[string]float64{"streaming": float64(i + 1), "icde": 1}})
				code, _, raw := fetch(t, http.MethodPut, ts.URL+"/v1/profile/hammer", strings.NewReader(string(body)))
				var p ProfileResponse
				if err := json.Unmarshal(raw, &p); code != 200 || err != nil {
					t.Errorf("PUT = %d (%v): %s", code, err, raw)
					return
				}
				revs <- p.Rev
			} else {
				var ref ReformulateResponse
				if code := getJSON(t, ts.URL+"/v1/reformulate?q=icde&k=5&mode=content&feedback="+fb+"&profile=hammer", &ref); code != 200 {
					t.Errorf("profile reformulate = %d", code)
					return
				}
				revs <- ref.ProfileRev
			}
			if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5&profile=hammer", nil); code != 200 {
				t.Errorf("personalized query = %d", code)
			}
		}(i)
	}
	wg.Wait()
	close(revs)
	seen := make(map[uint64]bool)
	for rev := range revs {
		if seen[rev] {
			t.Errorf("rev %d handed out twice", rev)
		}
		seen[rev] = true
	}

	var stored ProfileResponse
	if code := getJSON(t, ts.URL+"/v1/profile/hammer", &stored); code != 200 {
		t.Fatalf("GET = %d", code)
	}
	if want := uint64(1 + puts + trains); stored.Rev != want {
		t.Errorf("final rev %d after %d writes, want %d", stored.Rev, puts+trains, want)
	}
	var got QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=olap&k=5&profile=hammer", &got); code != 200 {
		t.Fatalf("personalized query = %d", code)
	}
	ctx, pin := context.Background(), s.eng.Pin()
	res, err := s.cache.RankPinnedCtx(ctx, pin, ir.NewQuery("olap"))
	if err != nil {
		t.Fatal(err)
	}
	blend, err := s.Profiles().Blend(ctx, pin, res.Scores, stored.Mixture, profile.DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	want := rank.TopK(blend, 5)
	s.eng.Release(res)
	if len(got.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want))
	}
	for i, r := range want {
		if got.Results[i].Node != int64(r.Node) || got.Results[i].Score != r.Score {
			t.Fatalf("result %d = %d/%v, a fresh blend of the stored mixture gives %d/%v",
				i, got.Results[i].Node, got.Results[i].Score, r.Node, r.Score)
		}
	}
}

// TestProfileRejectedBeforeWork: a profile-scoped reformulate that names
// no usable profile — personalization disabled, or an invalid id — is
// answered before the feedback ranking and explains run: no kernel solve
// and no cache compute.
func TestProfileRejectedBeforeWork(t *testing.T) {
	_, off := testServer(t)
	_, on := profileTestServer(t)
	for _, tc := range []struct {
		base, profile string
		code          int
	}{
		{off.URL, "alice", 403},
		{on.URL, "a+b", 400},
	} {
		before, _ := scrapeMetrics(t, tc.base)
		code, _, raw := fetch(t, http.MethodGet, tc.base+"/v1/reformulate?q=xml+index&feedback=0,1&profile="+tc.profile, nil)
		if code != tc.code {
			t.Fatalf("profile=%s: status %d, want %d: %s", tc.profile, code, tc.code, raw)
		}
		after, _ := scrapeMetrics(t, tc.base)
		for _, family := range []string{"afq_kernel_solves_total", "afq_cache_computes_total"} {
			if after[family] != before[family] {
				t.Errorf("profile=%s: %s moved %v → %v on a rejected request", tc.profile, family, before[family], after[family])
			}
		}
	}
}

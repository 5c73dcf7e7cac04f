package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/rank"
	"authorityflow/internal/storage"
)

var updateTranscript = flag.Bool("update", false, "rewrite testdata/transcript.golden from this run")

// maxTranscriptBody is the largest body the transcript spells out; a
// longer one (the complete html and dot exports, a budget-1000 explain)
// is recorded by its length and SHA-256.
const maxTranscriptBody = 16 << 10

// transcriptStep is one scripted request.
type transcriptStep struct {
	method, path, body string
	header             map[string]string
}

// TestTranscript drives one fresh profile-enabled server, one with
// profiles disabled and one with swapping enabled, through a fixed
// single-goroutine script covering every endpoint and every single-fault
// 4xx of the guarded handlers, the rates publish, the corpus swap and
// the profile surface. Each request carries a fixed
// X-Request-ID, so the ids echoed in error bodies are deterministic. The
// status, Content-Type, Allow, the X-Afq-* headers and the body of every
// response are compared with testdata/transcript.golden; -update
// rewrites it. /v1/healthz, /v1/stats and /metrics carry uptime and are
// not scripted.
func TestTranscript(t *testing.T) {
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}}
	on, err := New(ds, rc, WithCache(8<<20, 0), WithProfiles(t.TempDir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	off, err := New(ds, rc)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	n := 0
	do := func(h http.Handler, label string, st transcriptStep) []byte {
		t.Helper()
		n++
		id := "t-" + strconv.Itoa(n)
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		req.Header.Set("X-Request-ID", id)
		for k, v := range st.header {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "### %s %s [%s] %s %s\n", id, label, st.method, st.path, transcriptBodyLabel(st.body))
		fmt.Fprintf(&out, "status: %d\n", rec.Code)
		for _, k := range []string{"Content-Type", "Allow", HeaderGeneration, HeaderRatesVersion} {
			if v := rec.Header().Get(k); v != "" {
				fmt.Fprintf(&out, "%s: %s\n", k, v)
			}
		}
		body := rec.Body.Bytes()
		switch {
		case len(body) > maxTranscriptBody:
			fmt.Fprintf(&out, "<%d-byte body, sha256 %x>\n", len(body), sha256.Sum256(body))
		case bytes.HasSuffix(body, []byte("\n")):
			out.Write(body)
		default:
			out.Write(body)
			out.WriteString("\n")
		}
		return body
	}
	get := func(h http.Handler, label, path string) []byte {
		return do(h, label, transcriptStep{method: http.MethodGet, path: path})
	}

	hOn, hOff := on.Handler(), off.Handler()

	// Node ids the script explains and marks: the top of two queries.
	var olap, mining QueryResponse
	if err := json.Unmarshal(get(hOn, "on", "/v1/query?q=olap&k=5"), &olap); err != nil || len(olap.Results) < 3 {
		t.Fatalf("seed query: %v (%d results)", err, len(olap.Results))
	}
	if err := json.Unmarshal(get(hOn, "on", "/v1/query?q=mining&k=5"), &mining); err != nil || len(mining.Results) == 0 {
		t.Fatalf("seed query: %v", err)
	}
	a := strconv.FormatInt(olap.Results[0].Node, 10)
	b := strconv.FormatInt(olap.Results[1].Node, 10)
	m := strconv.FormatInt(mining.Results[0].Node, 10)
	far := strconv.Itoa(ds.Graph.NumNodes())

	script := []transcriptStep{
		// /v1/query: miss, rendered hit, stored-body hit, spellings, modes, k.
		{method: "GET", path: "/v1/query?q=olap&k=5"},
		{method: "GET", path: "/v1/query?q=olap&k=5"},
		{method: "GET", path: "/v1/query?q=olap+cube&k=3"},
		{method: "GET", path: "/v1/query?q=cube+olap&k=3"},
		{method: "GET", path: "/v1/query?q=olap&k=3&mode=hub"},
		{method: "GET", path: "/v1/query?q=olap&k=3&mode=authority&budget=7&format=dot"},
		{method: "GET", path: "/v1/query?q=xml&k=1"},
		{method: "GET", path: "/v1/query?q=xml"},
		// /v1/query faults.
		{method: "GET", path: "/v1/query"},
		{method: "GET", path: "/v1/query?q=+"},
		{method: "GET", path: "/v1/query?q=%21%21"},
		{method: "GET", path: "/v1/query?q=olap&k=0"},
		{method: "GET", path: "/v1/query?q=olap&k=1001"},
		{method: "GET", path: "/v1/query?q=olap&k=ten"},
		{method: "GET", path: "/v1/query?q=olap&mode=combined"},
		{method: "GET", path: "/v1/query?q=olap&budget=-1"},
		{method: "GET", path: "/v1/query?q=olap&budget=lots"},
		{method: "GET", path: "/v1/query?q=olap&budget=1001"},
		{method: "GET", path: "/v1/query?q=olap&format=xml"},
		{method: "GET", path: "/v1/query?q=olap", header: map[string]string{timeoutHeader: "soon"}},
		{method: "GET", path: "/v1/query?q=olap", header: map[string]string{timeoutHeader: "-5"}},

		// /v1/query/batch.
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"olap","k":3},{"q":"web search","k":2},{"q":"olap","k":2,"mode":"hub"},{"q":"xml"}]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"olap","k":3},{"q":"query optimization","k":2,"budget":5}]}`},
		{method: "GET", path: "/v1/query/batch"},
		{method: "POST", path: "/v1/query/batch", body: `{`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[` + strings.TrimSuffix(strings.Repeat(`{"q":"olap"},`, MaxBatchQueries+1), ",") + `]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"olap"},{"q":" "}]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"olap","k":-1}]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"olap","k":1001}]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"olap","mode":"combined"}]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"olap","budget":1001}]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"!!"}]}`},
		{method: "POST", path: "/v1/query/batch", body: `{"queries":[{"q":"` + strings.Repeat("x", maxBatchBody) + `"}]}`},

		// /v1/explain: budgets 1/16/1000, the three formats, hub.
		{method: "GET", path: "/v1/explain?q=olap&target=" + a + "&budget=1"},
		{method: "GET", path: "/v1/explain?q=olap&target=" + a},
		{method: "GET", path: "/v1/explain?q=olap&target=" + a + "&budget=1000"},
		{method: "GET", path: "/v1/explain?q=olap&target=" + b + "&format=html"},
		{method: "GET", path: "/v1/explain?q=olap&target=" + b + "&format=dot"},
		{method: "GET", path: "/v1/explain?q=olap&target=" + a + "&mode=hub&budget=4"},
		{method: "GET", path: "/v1/explain?q=olap+cube&target=" + a + "&budget=4"},
		// /v1/explain faults.
		{method: "GET", path: "/v1/explain?target=" + a},
		{method: "GET", path: "/v1/explain?q=%21%21&target=" + a},
		{method: "GET", path: "/v1/explain?q=olap&k=0&target=" + a},
		{method: "GET", path: "/v1/explain?q=olap"},
		{method: "GET", path: "/v1/explain?q=olap&target=abc"},
		{method: "GET", path: "/v1/explain?q=olap&target=-1"},
		{method: "GET", path: "/v1/explain?q=olap&target=" + far},
		{method: "GET", path: "/v1/explain?q=olap&target=" + a + "&mode=combined"},
		{method: "GET", path: "/v1/explain?q=olap&target=" + a + "&budget=-1"},
		{method: "GET", path: "/v1/explain?q=olap&target=" + a + "&format=xml"},

		// /v1/audit.
		{method: "GET", path: "/v1/audit?q=olap&target=" + a + "&budget=1"},
		{method: "GET", path: "/v1/audit?q=olap&target=" + a},
		{method: "GET", path: "/v1/audit?q=olap&target=" + b + "&mode=hub&budget=5"},
		// /v1/audit faults.
		{method: "GET", path: "/v1/audit?target=" + a},
		{method: "GET", path: "/v1/audit?q=olap"},
		{method: "GET", path: "/v1/audit?q=olap&target=x1"},
		{method: "GET", path: "/v1/audit?q=olap&target=" + far},
		{method: "GET", path: "/v1/audit?q=olap&target=" + a + "&mode=both"},
		{method: "GET", path: "/v1/audit?q=olap&target=" + a + "&budget=1001"},
		{method: "GET", path: "/v1/audit?q=olap&target=" + a + "&format=pdf"},

		// /v1/reformulate faults, before any publish.
		{method: "GET", path: "/v1/reformulate?feedback=" + a},
		{method: "GET", path: "/v1/reformulate?q=%21%21&feedback=" + a},
		{method: "GET", path: "/v1/reformulate?q=olap&k=0&feedback=" + a},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&mode=bogus"},
		{method: "GET", path: "/v1/reformulate?q=olap"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=,"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=abc"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + ",-2"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + far},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&confidence=NaN"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&confidence=-0.5"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "," + b + "&confidence=0.5"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&version=banana"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&version=7"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&profile=a+b"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&profile=ghost"},

		// /v1/reformulate: structure, content, both, confidences, version.
		{method: "GET", path: "/v1/reformulate?q=olap&k=5&feedback=" + a + "," + b + "&mode=structure&version=1"},
		{method: "GET", path: "/v1/query?q=olap&k=5"},
		{method: "GET", path: "/v1/reformulate?q=olap&k=5&feedback=" + a + "&mode=content"},
		{method: "GET", path: "/v1/reformulate?q=olap&k=4&feedback=" + a + "," + m + "&mode=both&confidence=1,0.25"},
		{method: "GET", path: "/v1/reformulate?q=mining&k=3&feedback=" + m},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&version=1"},
		{method: "GET", path: "/v1/query?q=olap&k=5"},

		// POST /v1/rates and GET /v1/rates.
		{method: "GET", path: "/v1/rates"},
		{method: "POST", path: "/v1/rates", body: `{"vector":[]}`},
		{method: "POST", path: "/v1/rates", body: `{`},
		{method: "POST", path: "/v1/rates", body: `{"vector":[0.5]}`},
		{method: "POST", path: "/v1/rates", body: `{"vector":[0.5,0,0.1,0.1,0.1,0.04,0.08,0.08,0.1]}`},
		{method: "POST", path: "/v1/rates", body: `{"vector":[0.5,0,0.1,0.1,0.1,-0.04,0.08,0.08]}`},
		{method: "POST", path: "/v1/rates", body: `{"vector":[0.5,0,0.1,0.1,0.1,0.04,0.08,0.08],"ifVersion":1}`},
		{method: "POST", path: "/v1/rates", body: `{"vector":[0.5,0,0.1,0.1,0.1,0.04,0.08,0.08],"ifGeneration":9}`},
		{method: "POST", path: "/v1/rates", body: `{"vector":[0.5,0,0.1,0.1,0.1,0.04,0.08,0.08]}`},
		{method: "GET", path: "/v1/rates"},
		{method: "POST", path: "/v1/corpus/swap", body: `{"snapshot":"x.snap"}`},
		{method: "GET", path: "/v1/query?q=olap&k=5"},

		// Profile CRUD.
		{method: "PUT", path: "/v1/profile/user-42", body: `{"mixture":{"streaming":1}}`},
		{method: "GET", path: "/v1/profile/user-42"},
		{method: "GET", path: "/v1/profile/ghost"},
		{method: "GET", path: "/v1/profile/a%20b"},
		{method: "PUT", path: "/v1/profile/user-42", body: `{`},
		{method: "PUT", path: "/v1/profile/user-42", body: `{"mixture":{"x":1},"pad":"` + strings.Repeat("p", maxProfileBody) + `"}`},
		{method: "PATCH", path: "/v1/profile/user-42"},

		// ?profile= query.
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=user-42"},
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=user-42"},
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=user-42&mode=hub"},
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=a+b"},
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=ghost"},

		// ?profile= reformulate in all three modes, two opposite structure-only rounds first.
		{method: "GET", path: "/v1/reformulate?q=olap&k=5&feedback=" + a + "&mode=structure&profile=user-42"},
		{method: "GET", path: "/v1/reformulate?q=icde+mining&k=5&feedback=" + m + "&mode=structure&profile=user-42"},
		{method: "GET", path: "/v1/profile/user-42"},
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=user-42"},
		{method: "GET", path: "/v1/reformulate?q=olap&k=5&feedback=" + a + "&mode=content&profile=user-42"},
		{method: "GET", path: "/v1/reformulate?q=olap&k=5&feedback=" + a + "," + b + "&mode=both&confidence=1,0.5&profile=user-42"},
		{method: "GET", path: "/v1/reformulate?q=olap&k=5&feedback=" + a + "&profile=user-42&version=1"},
		{method: "GET", path: "/v1/profile/user-42"},
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=user-42"},
		{method: "GET", path: "/v1/query?q=olap+cube&k=3&profile=user-42"},
		{method: "PUT", path: "/v1/profile/user-42", body: `{"mixture":{"streaming":0.5,"mining":0.5},"beta":0.4}`},
		{method: "GET", path: "/v1/profile/user-42"},
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=user-42"},
		{method: "DELETE", path: "/v1/profile/user-42"},
		{method: "GET", path: "/v1/profile/user-42"},
		{method: "GET", path: "/v1/query?q=olap&k=5&profile=user-42"},
		{method: "GET", path: "/v1/reformulate?q=olap&feedback=" + a + "&profile=user-42"},
		{method: "GET", path: "/v1/rates"},
	}
	for _, st := range script {
		do(hOn, "on", st)
	}

	// Profiles disabled: every profile surface is a 403, and the rest serves.
	for _, st := range []transcriptStep{
		{method: "GET", path: "/v1/query?q=olap&k=3"},
		{method: "GET", path: "/v1/query?q=olap&k=3&profile=alice"},
		{method: "GET", path: "/v1/query?q=olap&k=3&profile=alice&mode=hub"},
		{method: "GET", path: "/v1/profile/alice"},
		{method: "PUT", path: "/v1/profile/alice", body: `{"mixture":{"xml":1}}`},
		{method: "GET", path: "/v1/reformulate?q=olap&k=3&feedback=" + a + "&profile=alice"},
		{method: "GET", path: "/v1/reformulate?q=olap&k=3&feedback=" + a},
		{method: "GET", path: "/v1/rates"},
	} {
		do(hOff, "off", st)
	}

	// Swapping enabled: the one success, then every fault of the swap.
	dir := t.TempDir()
	next := datagen.DBLPTopConfig().Scale(0.015)
	next.Seed = 9
	nds, err := datagen.GenerateDBLP(next)
	if err != nil {
		t.Fatal(err)
	}
	neng, err := core.NewEngine(nds.Graph, nds.Rates, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteSnapshotFile(filepath.Join(dir, "next.snap"), nds, neng.Index()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	swap, err := New(ds, rc, WithSwapDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	hSwap := swap.Handler()
	for _, st := range []transcriptStep{
		{method: "POST", path: "/v1/corpus/swap", body: `{"snapshot":"next.snap","ifGeneration":1}`},
		{method: "GET", path: "/v1/query?q=olap&k=3"},
		{method: "POST", path: "/v1/corpus/swap", body: `{"snapshot":"next.snap","ifGeneration":1}`},
		{method: "POST", path: "/v1/corpus/swap", body: `{"snapshot":"../next.snap"}`},
		{method: "POST", path: "/v1/corpus/swap", body: `{"snapshot":"/next.snap"}`},
		{method: "POST", path: "/v1/corpus/swap", body: `{"snapshot":""}`},
		{method: "POST", path: "/v1/corpus/swap", body: `{`},
		{method: "POST", path: "/v1/corpus/swap", body: `{"snapshot":"junk.snap"}`},
		{method: "GET", path: "/v1/corpus/swap"},
		{method: "POST", path: "/v1/rates", body: `{"vector":[0.5,0,0.1,0.1,0.1,0.04,0.08,0.08],"ifGeneration":1}`},
	} {
		do(hSwap, "swap", st)
	}

	golden := filepath.Join("testdata", "transcript.golden")
	if *updateTranscript {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("transcript differs from %s at line %d:\n got: %.400s\nwant: %.400s", golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("transcript has %d lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
}

// transcriptBodyLabel names a request body in the transcript: short ones
// as sent, long ones by size.
func transcriptBodyLabel(body string) string {
	if len(body) > 200 {
		return "<" + strconv.Itoa(len(body)) + "-byte body>"
	}
	return body
}

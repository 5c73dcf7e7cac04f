package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/rank"
	"authorityflow/internal/storage"
)

// writeTestSnapshot generates a dataset at the given scale/seed and
// writes its binary snapshot (graph + rates + index) into dir.
func writeTestSnapshot(t *testing.T, dir, name string, scale float64, seed int64) *datagen.Dataset {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(scale)
	cfg.Seed = seed
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteSnapshotFile(filepath.Join(dir, name), ds, eng.Index()); err != nil {
		t.Fatal(err)
	}
	return ds
}

// swapServer builds a server with swapping enabled against a temp
// directory holding one swappable snapshot, "next.snap".
func swapServer(t *testing.T) (*Server, *httptest.Server, *datagen.Dataset) {
	t.Helper()
	dir := t.TempDir()
	next := writeTestSnapshot(t, dir, "next.snap", 0.015, 9)

	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}},
		WithSwapDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, next
}

func postSwap(t *testing.T, url string, req CorpusSwapRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/corpus/swap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode swap response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestCorpusSwapEndpoint(t *testing.T) {
	s, ts, next := swapServer(t)

	var h HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Generation != 1 {
		t.Fatalf("initial generation = %d, want 1", h.Generation)
	}
	oldNodes := s.Dataset().Graph.NumNodes()

	var ok CorpusSwapResponse
	if code := postSwap(t, ts.URL, CorpusSwapRequest{Snapshot: "next.snap"}, &ok); code != 200 {
		t.Fatalf("swap status = %d", code)
	}
	if ok.Generation != 2 {
		t.Errorf("swap generation = %d, want 2", ok.Generation)
	}
	if ok.Nodes != next.Graph.NumNodes() || ok.Edges != next.Graph.NumEdges() {
		t.Errorf("swap reported (%d,%d), snapshot has (%d,%d)",
			ok.Nodes, ok.Edges, next.Graph.NumNodes(), next.Graph.NumEdges())
	}
	if ok.Nodes == oldNodes {
		t.Fatal("test datasets have equal node counts; pick different scales")
	}

	// The swapped-in corpus serves immediately, without restart.
	var q QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q=mining&k=5", &q); code != 200 {
		t.Fatalf("post-swap query status = %d", code)
	}
	if q.Generation != 2 {
		t.Errorf("query generation = %d, want 2", q.Generation)
	}
	for _, it := range q.Results {
		if int(it.Node) >= next.Graph.NumNodes() {
			t.Errorf("result node %d out of range for the swapped-in graph", it.Node)
		}
	}

	// Health, stats and the Dataset accessor all track the new corpus.
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Generation != 2 || h.Nodes != next.Graph.NumNodes() {
		t.Errorf("health after swap = %+v", h)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Generation != 2 || st.CorpusSwaps != 1 {
		t.Errorf("stats after swap: generation=%d swaps=%d", st.Generation, st.CorpusSwaps)
	}
	if s.Dataset().Graph.NumNodes() != next.Graph.NumNodes() {
		t.Errorf("Dataset() still returns the old corpus")
	}
}

func TestCorpusSwapConflict(t *testing.T) {
	_, ts, _ := swapServer(t)

	var env SwapConflictEnvelope
	code := postSwap(t, ts.URL, CorpusSwapRequest{Snapshot: "next.snap", IfGeneration: 42}, &env)
	if code != http.StatusConflict {
		t.Fatalf("stale-token swap status = %d, want 409", code)
	}
	if env.Error.Code != CodeVersionConflict {
		t.Errorf("error code = %q, want %q", env.Error.Code, CodeVersionConflict)
	}
	if env.Generation != 1 {
		t.Errorf("conflict reports generation %d, want the winner 1", env.Generation)
	}

	// Explicit matching token succeeds.
	if code := postSwap(t, ts.URL, CorpusSwapRequest{Snapshot: "next.snap", IfGeneration: env.Generation}, nil); code != 200 {
		t.Fatalf("matching-token swap status = %d", code)
	}
}

func TestCorpusSwapRejections(t *testing.T) {
	dir := t.TempDir()
	writeTestSnapshot(t, dir, "next.snap", 0.015, 9)
	// A valid snapshot with a flipped section-table byte: structurally a
	// file, but the table checksum no longer matches.
	good, err := os.ReadFile(filepath.Join(dir, "next.snap"))
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	bad[40] ^= 0xff // inside the section table (header is 32 bytes)
	if err := os.WriteFile(filepath.Join(dir, "corrupt.snap"), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: rank.Options{Threshold: 1e-6, MaxIters: 300}},
		WithSwapDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		name string
		req  CorpusSwapRequest
		want int
	}{
		{"empty name", CorpusSwapRequest{}, 400},
		{"path traversal", CorpusSwapRequest{Snapshot: "../next.snap"}, 400},
		{"absolute path", CorpusSwapRequest{Snapshot: "/etc/passwd"}, 400},
		{"missing file", CorpusSwapRequest{Snapshot: "nope.snap"}, 400},
		{"corrupt snapshot", CorpusSwapRequest{Snapshot: "corrupt.snap"}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env struct {
				Error ErrorInfo `json:"error"`
			}
			if code := postSwap(t, ts.URL, tc.req, &env); code != tc.want {
				t.Fatalf("status = %d, want %d", code, tc.want)
			}
			if env.Error.Message == "" {
				t.Error("error envelope missing message")
			}
		})
	}

	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/corpus/swap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}

	// After all the rejections, the untouched generation still serves.
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != 200 || h.Generation != 1 {
		t.Errorf("health after rejections: code=%d generation=%d", code, h.Generation)
	}
}

func TestCorpusSwapDisabled(t *testing.T) {
	_, ts := testServer(t) // no WithSwapDir
	if code := postSwap(t, ts.URL, CorpusSwapRequest{Snapshot: "next.snap"}, nil); code != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", code)
	}
}

// TestCorpusSwapUnderLoad is the serving-layer -race hammer: concurrent
// queries while the corpus is swapped back and forth. Every response
// must be internally consistent — the generation it reports must bound
// every node ID it renders.
func TestCorpusSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	gen1 := writeTestSnapshot(t, dir, "a.snap", 0.02, 4)
	gen2 := writeTestSnapshot(t, dir, "b.snap", 0.015, 9)

	s, err := New(gen1, core.Config{Rank: rank.Options{Threshold: 1e-5, MaxIters: 120}},
		WithSwapDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Node count per generation: odd generations serve a.snap's shape,
	// even generations b.snap's (the swapper strictly alternates).
	nodesFor := func(gen uint64) int {
		if gen%2 == 1 {
			return gen1.Graph.NumNodes()
		}
		return gen2.Graph.NumNodes()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var q QueryResponse
				code := getJSON(t, ts.URL+"/v1/query?q=mining&k=5", &q)
				if code != 200 {
					t.Errorf("query status = %d", code)
					return
				}
				if q.Generation == 0 {
					t.Error("query response missing generation")
					return
				}
				n := nodesFor(q.Generation)
				for _, it := range q.Results {
					if int(it.Node) >= n {
						t.Errorf("generation %d response holds node %d, graph has %d nodes",
							q.Generation, it.Node, n)
						return
					}
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		names := []string{"b.snap", "a.snap"}
		for i := 0; i < 40; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code := postSwap(t, ts.URL, CorpusSwapRequest{Snapshot: names[i%2]}, nil)
			if code != 200 && code != http.StatusConflict {
				t.Errorf("swap %d status = %d", i, code)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.CorpusSwaps == 0 {
		t.Error("no swap ever succeeded under load")
	}
	if st.Generation != uint64(st.CorpusSwaps)+1 {
		t.Errorf("generation %d inconsistent with %d swaps", st.Generation, st.CorpusSwaps)
	}
}

// TestReformulateFeedbackRacesPublishAndSwap: reformulates of
// MaxFeedback feedback ids, whose explains run concurrently, race a
// rates publication, a corpus swap or a cancellation landing a few
// milliseconds in. Each answers a consistent body — a published version
// and a ranked answer inside a served graph — or the 409 of a race it
// lost, or the 499 of its cancellation, and one nothing races answers;
// once all have returned, no goroutine they started is left.
func TestReformulateFeedbackRacesPublishAndSwap(t *testing.T) {
	dir := t.TempDir()
	gen1 := writeTestSnapshot(t, dir, "a.snap", 0.02, 4)
	gen2 := writeTestSnapshot(t, dir, "b.snap", 0.015, 9)
	s, err := New(gen1, core.Config{Rank: rank.Options{Threshold: 1e-5, MaxIters: 120}}, WithSwapDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func(ctx context.Context, method, url, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)).WithContext(ctx))
		return rec
	}
	// Feedback ids spread over the nodes both generations have.
	n := min(gen1.Graph.NumNodes(), gen2.Graph.NumNodes())
	ids := make([]string, MaxFeedback)
	for i := range ids {
		ids[i] = strconv.Itoa(i * n / MaxFeedback)
	}
	url := "/v1/reformulate?q=mining&feedback=" + strings.Join(ids, ",")
	before := runtime.NumGoroutine()

	var racers sync.WaitGroup
	race := func(after time.Duration, f func()) {
		racers.Add(1)
		time.AfterFunc(after, func() { defer racers.Done(); f() })
	}
	swaps := 0
	codes := map[int]int{}
	for i := 0; i < 16; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		after := time.Duration(1+i/4) * time.Millisecond
		switch i % 4 {
		case 1:
			// A swap between the read and the publish makes the rates
			// another schema's, and the publish is refused.
			race(after, func() { _ = s.Engine().SetRates(s.Engine().Rates()) })
		case 2:
			swaps++
			snap := []string{"b.snap", "a.snap"}[swaps%2]
			race(after, func() {
				if rec := serve(context.Background(), http.MethodPost, "/v1/corpus/swap", `{"snapshot":"`+snap+`"}`); rec.Code != 200 {
					t.Errorf("swap to %s: status %d", snap, rec.Code)
				}
			})
		case 3:
			race(after, cancel)
		}
		rec := serve(ctx, http.MethodGet, url, "")
		racers.Wait()
		cancel()
		codes[rec.Code]++
		switch {
		case rec.Code == 200:
			var resp ReformulateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Version < 2 || len(resp.Results) == 0 {
				t.Errorf("reformulate %d: version %d, %d results", i, resp.Version, len(resp.Results))
			}
			for j, r := range resp.Results {
				if int(r.Node) >= max(gen1.Graph.NumNodes(), gen2.Graph.NumNodes()) || r.Display == "" ||
					j > 0 && r.Score > resp.Results[j-1].Score {
					t.Errorf("reformulate %d: result %d is %+v", i, j, r)
				}
			}
		case i%4 == 0:
			t.Fatalf("reformulate %d, raced by nothing: status %d (body %s)", i, rec.Code, rec.Body)
		case rec.Code == http.StatusConflict && i%4 != 3, rec.Code == statusClientClosedRequest && i%4 == 3:
		default:
			t.Fatalf("reformulate %d: status %d (body %s)", i, rec.Code, rec.Body)
		}
	}
	t.Logf("statuses %v", codes)

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the reformulates returned, %d before:\n%s", after, before, buf[:runtime.Stack(buf, true)])
	}
}

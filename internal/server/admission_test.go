package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/rank"
)

// admissionServer builds a server with explicit admission options and
// an optional per-iteration observer hook for stretching solves.
func admissionServer(t *testing.T, adm AdmissionOptions, ropts rank.Options) (*Server, *httptest.Server) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 4
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ds, core.Config{Rank: ropts}, WithAdmission(adm))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doGet issues a GET with optional headers and returns the status code
// plus the decoded error envelope (zero when the body is not one).
func doGet(t *testing.T, url string, headers map[string]string) (int, ErrorInfo) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env.Error
}

// TestRequestValidation is the PR-4 validation bugfix sweep: every
// malformed request parameter is rejected 400 at the door — before any
// kernel work — and the error body carries the request ID so user
// reports join against the access log.
func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name    string
		path    string
		headers map[string]string
		wantMsg string // substring the error message must contain
	}{
		// /query parameter validation.
		{name: "missing q", path: "/v1/query", wantMsg: "q parameter required"},
		{name: "whitespace q", path: "/v1/query?q=%20%20", wantMsg: "q parameter required"},
		{name: "unindexable q", path: "/v1/query?q=%21%21%2C%2E", wantMsg: "no indexable terms"},
		{name: "k zero", path: "/v1/query?q=olap&k=0", wantMsg: "k must be"},
		{name: "k negative", path: "/v1/query?q=olap&k=-3", wantMsg: "k must be"},
		{name: "k non-numeric", path: "/v1/query?q=olap&k=ten", wantMsg: "k must be"},
		{name: "k too large", path: "/v1/query?q=olap&k=1001", wantMsg: "k must be"},
		// /explain target validation.
		{name: "missing target", path: "/v1/explain?q=olap", wantMsg: "target"},
		{name: "non-numeric target", path: "/v1/explain?q=olap&target=abc", wantMsg: "target"},
		{name: "negative target", path: "/v1/explain?q=olap&target=-1", wantMsg: "out of range"},
		{name: "out-of-range target", path: "/v1/explain?q=olap&target=999999999", wantMsg: "out of range"},
		{name: "overflow target", path: "/v1/explain?q=olap&target=9223372036854775808", wantMsg: "target"},
		// /reformulate feedback / mode / confidence / version validation.
		{name: "missing feedback", path: "/v1/reformulate?q=olap", wantMsg: "feedback ids required"},
		{name: "non-numeric feedback", path: "/v1/reformulate?q=olap&feedback=abc", wantMsg: "feedback id"},
		{name: "negative feedback", path: "/v1/reformulate?q=olap&feedback=-2", wantMsg: "out of range"},
		{name: "out-of-range feedback", path: "/v1/reformulate?q=olap&feedback=0,999999999", wantMsg: "out of range"},
		{name: "bad mode", path: "/v1/reformulate?q=olap&feedback=0&mode=bogus", wantMsg: "unknown mode"},
		{name: "NaN confidence", path: "/v1/reformulate?q=olap&feedback=0&confidence=NaN", wantMsg: "finite non-negative"},
		{name: "Inf confidence", path: "/v1/reformulate?q=olap&feedback=0&confidence=%2BInf", wantMsg: "finite non-negative"},
		{name: "negative confidence", path: "/v1/reformulate?q=olap&feedback=0&confidence=-0.5", wantMsg: "finite non-negative"},
		{name: "non-numeric confidence", path: "/v1/reformulate?q=olap&feedback=0&confidence=high", wantMsg: "finite non-negative"},
		{name: "confidence count mismatch", path: "/v1/reformulate?q=olap&feedback=0,1&confidence=0.5", wantMsg: "feedback objects"},
		{name: "bad version token", path: "/v1/reformulate?q=olap&feedback=0&version=abc", wantMsg: "version token"},
		// X-Request-Timeout-Ms header validation (all guarded endpoints).
		{name: "non-numeric timeout header", path: "/v1/query?q=olap",
			headers: map[string]string{timeoutHeader: "soon"}, wantMsg: timeoutHeader},
		{name: "zero timeout header", path: "/v1/query?q=olap",
			headers: map[string]string{timeoutHeader: "0"}, wantMsg: timeoutHeader},
		{name: "negative timeout header", path: "/v1/explain?q=olap&target=0",
			headers: map[string]string{timeoutHeader: "-5"}, wantMsg: timeoutHeader},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := doGet(t, ts.URL+tc.path, tc.headers)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %v)", code, body)
			}
			if !strings.Contains(body.Message, tc.wantMsg) {
				t.Errorf("error %q does not mention %q", body.Message, tc.wantMsg)
			}
			if body.RequestID == "" {
				t.Errorf("400 body lacks requestId: %v", body)
			}
		})
	}
}

// TestEffectiveTimeout pins the header/cap resolution contract: the
// client may only shorten the server's deadline, never extend it.
func TestEffectiveTimeout(t *testing.T) {
	mk := func(h string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/v1/query?q=x", nil)
		if h != "" {
			r.Header.Set(timeoutHeader, h)
		}
		return r
	}
	cases := []struct {
		name    string
		header  string
		cap     time.Duration
		want    time.Duration
		wantOK  bool
		wantErr bool
	}{
		{name: "no cap no header", header: "", cap: 0, wantOK: false},
		{name: "cap only", header: "", cap: time.Second, want: time.Second, wantOK: true},
		{name: "header only", header: "250", cap: 0, want: 250 * time.Millisecond, wantOK: true},
		{name: "header shortens cap", header: "100", cap: time.Second, want: 100 * time.Millisecond, wantOK: true},
		{name: "header cannot extend cap", header: "5000", cap: time.Second, want: time.Second, wantOK: true},
		{name: "invalid header", header: "nope", cap: time.Second, wantErr: true},
		{name: "zero header", header: "0", cap: time.Second, wantErr: true},
		{name: "unrepresentable header, no cap", header: "10000000000000", cap: 0, wantOK: false},
		{name: "unrepresentable header keeps cap", header: "10000000000000", cap: time.Second, want: time.Second, wantOK: true},
		{name: "largest representable header", header: "9223372036854", cap: 0, want: 9223372036854 * time.Millisecond, wantOK: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, ok, err := effectiveTimeout(mk(tc.header), tc.cap)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.wantOK || (ok && d != tc.want) {
				t.Fatalf("effectiveTimeout = (%v, %t), want (%v, %t)", d, ok, tc.want, tc.wantOK)
			}
		})
	}
}

// slowRankOptions builds kernel options whose solves, once `slow` is
// armed, signal `started` on their first sweep and then crawl until
// `release` is closed (after which remaining sweeps run at full speed).
func slowRankOptions(slow *atomic.Bool, started chan struct{}, release chan struct{}) rank.Options {
	var once sync.Once
	return rank.Options{
		Threshold: rank.ZeroThreshold,
		MaxIters:  20_000,
		Observe: func(int, float64) {
			if !slow.Load() {
				return
			}
			once.Do(func() { close(started) })
			select {
			case <-release:
			default:
				time.Sleep(200 * time.Microsecond)
			}
		},
	}
}

// TestAdmissionShed503 is the PR-4 load-shedding acceptance scenario:
// with -max-inflight=1 and no queue wait, a flood against a busy
// replica is shed with 503 + Retry-After, the sheds are counted in
// afq_http_shed_total, and operator endpoints stay reachable
// throughout.
func TestAdmissionShed503(t *testing.T) {
	var slow atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := admissionServer(t,
		AdmissionOptions{MaxInflight: 1, QueueWait: 0},
		slowRankOptions(&slow, started, release))
	// Force the once-only global warm-start PageRank (which runs with
	// the same kernel options but no request context) while still fast.
	s.Engine().GlobalRank()
	slow.Store(true)

	// Occupy the only slot with a deliberately slow solve.
	blockerDone := make(chan struct{})
	var blockerCode int
	go func() {
		defer close(blockerDone)
		blockerCode, _ = doGet(t, ts.URL+"/v1/query?q=olap", nil)
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking solve never started")
	}

	// Flood: every expensive endpoint sheds immediately with 503.
	for _, path := range []string{"/v1/query?q=olap", "/v1/explain?q=olap&target=0", "/v1/reformulate?q=olap&feedback=0"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status = %d, want 503 (body %v)", path, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("%s: 503 without Retry-After", path)
		}
		if body.Error.RequestID == "" {
			t.Errorf("%s: shed body lacks requestId: %v", path, body)
		}
	}
	if n := s.obs.shedTotal.Count(); n < 3 {
		t.Errorf("afq_http_shed_total = %d, want >= 3", n)
	}

	// Operator endpoints are never throttled: /healthz and /metrics
	// answer while the replica is saturated, and the exposition carries
	// the shed counter.
	if code, _ := doGet(t, ts.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Errorf("/v1/healthz under saturation: status = %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := readAll(resp)
	if !strings.Contains(exp, "afq_http_shed_total") {
		t.Error("metrics exposition lacks afq_http_shed_total")
	}

	// Release the blocker; it must finish successfully — shedding its
	// competitors never disturbed its own solve.
	close(release)
	select {
	case <-blockerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking query never finished after release")
	}
	if blockerCode != http.StatusOK {
		t.Fatalf("blocking query status = %d, want 200", blockerCode)
	}
}

// TestAdmissionQueueWaitAdmits: with a queue-wait budget, a request
// that arrives during saturation WAITS for the slot instead of
// shedding, and succeeds once the slot frees.
func TestAdmissionQueueWaitAdmits(t *testing.T) {
	var slow atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := admissionServer(t,
		AdmissionOptions{MaxInflight: 1, QueueWait: 30 * time.Second},
		slowRankOptions(&slow, started, release))
	// Force the once-only global warm-start PageRank (which runs with
	// the same kernel options but no request context) while still fast.
	s.Engine().GlobalRank()
	slow.Store(true)

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		doGet(t, ts.URL+"/v1/query?q=olap", nil)
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking solve never started")
	}

	queuedDone := make(chan struct{})
	var queuedCode int
	go func() {
		defer close(queuedDone)
		queuedCode, _ = doGet(t, ts.URL+"/v1/query?q=olap", nil)
	}()
	// Give the queued request time to reach the semaphore, then free
	// the slot: both requests must now complete 200.
	time.Sleep(20 * time.Millisecond)
	slow.Store(false) // the queued request's own solve runs fast
	close(release)
	select {
	case <-queuedDone:
	case <-time.After(30 * time.Second):
		t.Fatal("queued request never completed")
	}
	if queuedCode != http.StatusOK {
		t.Fatalf("queued request status = %d, want 200", queuedCode)
	}
	<-blockerDone
	if n := s.obs.shedTotal.Count(); n != 0 {
		t.Errorf("afq_http_shed_total = %d, want 0 (nothing should shed with a queue budget)", n)
	}
}

// TestDeadline504 is the deadline half of the lifecycle: a solve that
// outlives the per-request budget — whether imposed by the server's
// -query-timeout or shortened via X-Request-Timeout-Ms — is abandoned
// within one sweep and answered 504, counted in afq_http_timeout_total.
func TestDeadline504(t *testing.T) {
	var slow atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	s, ts := admissionServer(t,
		AdmissionOptions{QueryTimeout: 50 * time.Millisecond},
		slowRankOptions(&slow, started, release))
	// Force the once-only global warm-start PageRank (which runs with
	// the same kernel options but no request context) while still fast.
	s.Engine().GlobalRank()
	slow.Store(true)

	begin := time.Now()
	code, body := doGet(t, ts.URL+"/v1/query?q=olap", nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %v)", code, body)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("504 took %v — cancellation did not reach the kernel within a sweep", elapsed)
	}
	if body.RequestID == "" {
		t.Errorf("504 body lacks requestId: %v", body)
	}
	if n := s.obs.timeoutTotal.Count(); n != 1 {
		t.Errorf("afq_http_timeout_total = %d, want 1", n)
	}

	// The header can only SHORTEN the server cap: asking for 60s still
	// dies at the 50ms server deadline.
	begin = time.Now()
	code, _ = doGet(t, ts.URL+"/v1/query?q=olap", map[string]string{timeoutHeader: "60000"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status with huge header = %d, want 504", code)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("header extended the server deadline: 504 took %v", elapsed)
	}
}

// TestClientDeadlineHeader504: with NO server-side timeout configured,
// the client's X-Request-Timeout-Ms alone imposes the deadline.
func TestClientDeadlineHeader504(t *testing.T) {
	var slow atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	s, ts := admissionServer(t, AdmissionOptions{},
		slowRankOptions(&slow, started, release))
	// Force the once-only global warm-start PageRank (which runs with
	// the same kernel options but no request context) while still fast.
	s.Engine().GlobalRank()
	slow.Store(true)

	code, body := doGet(t, ts.URL+"/v1/query?q=olap", map[string]string{timeoutHeader: "50"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %v)", code, body)
	}
	if n := s.obs.timeoutTotal.Count(); n != 1 {
		t.Errorf("afq_http_timeout_total = %d, want 1", n)
	}
	// Without the header the same query completes.
	slow.Store(false)
	if code, _ := doGet(t, ts.URL+"/v1/query?q=olap", nil); code != http.StatusOK {
		t.Fatalf("status without header = %d, want 200", code)
	}
}

// TestUnrepresentableDeadlineHeaderShortensNothing: an
// X-Request-Timeout-Ms too large for a time.Duration must not wrap to a
// deadline in the past. The header may only shorten a deadline, so with
// no -query-timeout it imposes none and the query answers 200, not 504.
func TestUnrepresentableDeadlineHeaderShortensNothing(t *testing.T) {
	_, ts := admissionServer(t, AdmissionOptions{}, rank.Options{})
	if code, body := doGet(t, ts.URL+"/v1/query?q=olap", map[string]string{timeoutHeader: "10000000000000"}); code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %v)", code, body)
	}
}

// TestShedRetryAfterRoundsUp: a shed's Retry-After is the queue wait
// rounded up to whole seconds, floor 1.
func TestShedRetryAfterRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want string
	}{{0, "1"}, {time.Second, "1"}, {1500 * time.Millisecond, "2"}, {2001 * time.Millisecond, "3"}} {
		s, _ := admissionServer(t, AdmissionOptions{MaxInflight: 1, QueueWait: tc.wait}, rank.Options{})
		w := httptest.NewRecorder()
		s.shed(w, httptest.NewRequest(http.MethodGet, "/v1/query?q=olap", nil), s.adm, tc.wait)
		if got := w.Header().Get("Retry-After"); w.Code != http.StatusServiceUnavailable || got != tc.want {
			t.Errorf("queue wait %v: %d with Retry-After %q, want 503 with %q", tc.wait, w.Code, got, tc.want)
		}
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

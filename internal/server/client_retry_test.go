package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyTransport fails the first n round trips at the connection level
// (no HTTP response), then delegates to the real transport.
type flakyTransport struct {
	failures atomic.Int64
	attempts atomic.Int64
}

func (ft *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.attempts.Add(1)
	if ft.failures.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "dial", Err: errors.New("connection refused (injected)")}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestClientRetriesConnectionErrors: WithRetries re-attempts requests
// that failed before any HTTP response arrived — and replays POST
// bodies from their buffered bytes.
func TestClientRetriesConnectionErrors(t *testing.T) {
	_, ts := testServer(t)

	ft := &flakyTransport{}
	ft.failures.Store(2)
	c := NewClient(ts.URL, &http.Client{Transport: ft}, WithRetries(2))

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health after 2 injected failures: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if got := ft.attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (2 failures + 1 success)", got)
	}

	// A POST replays its body across retries.
	ft.failures.Store(1)
	ft.attempts.Store(0)
	batch, err := c.QueryBatch(context.Background(), BatchQueryRequest{
		Queries: []BatchQueryItem{{Q: "olap", K: 3}},
	})
	if err != nil {
		t.Fatalf("batch after injected failure: %v", err)
	}
	if len(batch.Answers) != 1 || len(batch.Answers[0].Results) == 0 {
		t.Errorf("replayed batch answered %+v", batch)
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

// TestClientRetriesExhausted: more consecutive connection failures
// than the retry budget surface the transport error.
func TestClientRetriesExhausted(t *testing.T) {
	_, ts := testServer(t)
	ft := &flakyTransport{}
	ft.failures.Store(5)
	c := NewClient(ts.URL, &http.Client{Transport: ft}, WithRetries(2))
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("want an error after exhausting retries")
	}
	if got := ft.attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (initial + 2 retries)", got)
	}
}

// TestClientDoRawOnceNeverRetries: DoRawOnce bypasses the WithRetries
// budget — exactly one attempt, so a non-idempotent dispatch (the
// router's /v1/reformulate) can never be silently re-sent after a
// transport failure that may have landed server-side.
func TestClientDoRawOnceNeverRetries(t *testing.T) {
	_, ts := testServer(t)
	ft := &flakyTransport{}
	ft.failures.Store(1)
	c := NewClient(ts.URL, &http.Client{Transport: ft}, WithRetries(3))

	if _, err := c.DoRawOnce(context.Background(), http.MethodGet, "/v1/healthz", nil, nil); err == nil {
		t.Fatal("want the injected transport error surfaced, not retried away")
	}
	if got := ft.attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want exactly 1", got)
	}

	// Same budget, same failure: DoRaw retries it away.
	ft.failures.Store(1)
	ft.attempts.Store(0)
	resp, err := c.DoRaw(context.Background(), http.MethodGet, "/v1/healthz", nil, nil)
	if err != nil || resp.Status != http.StatusOK {
		t.Fatalf("DoRaw after one injected failure: resp=%+v err=%v", resp, err)
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

// TestClientNeverRetriesHTTPErrors: an HTTP error status is a real
// answer — the client must not replay the request.
func TestClientNeverRetriesHTTPErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		Fail(w, r, conflict("raced", 7, 0))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil, WithRetries(3))
	_, err := c.Rates(context.Background())
	apiErr, ok := err.(*APIError)
	if !ok || !apiErr.IsConflict() || apiErr.Version != 7 {
		t.Fatalf("error = %v, want the decoded 409", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hit %d times, want exactly 1 — HTTP statuses are never retried", got)
	}
}

// TestClientRequestTimeout: WithRequestTimeout bounds each attempt on
// its own, without a deadline on the caller's context or the
// http.Client.
func TestClientRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)

	c := NewClient(ts.URL, nil, WithRequestTimeout(50*time.Millisecond))
	t0 := time.Now()
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("want a timeout error from the hung handler")
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("timed out after %v, want ~50ms", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Logf("timeout error type: %v (transport-wrapped deadline is acceptable)", err)
	}
}

// TestClientTimeoutNeverExtendsCallerContext: the per-attempt timeout
// layers UNDER the caller's deadline; a tighter caller context wins,
// and a cancelled context stops the retry loop immediately.
func TestClientTimeoutNeverExtendsCallerContext(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)

	c := NewClient(ts.URL, nil, WithRequestTimeout(10*time.Second), WithRetries(5))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("want an error from the expired caller context")
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("returned after %v — the 10s attempt timeout must not extend the caller's 50ms deadline, and retries must stop on a dead context", elapsed)
	}
}

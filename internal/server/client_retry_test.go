package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// call drives c the way the router's exchange does: in goes out as the
// JSON body (nil sends none), the answer is decoded into out (or comes
// back as the *APIError), and the request may be re-sent once.
func call(c *Client, method, path string, in, out any) error {
	var hdr http.Header
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		hdr, body = http.Header{"Content-Type": {"application/json"}}, b
	}
	resp, err := c.Do(context.Background(), method, path, hdr, body, true)
	if err != nil {
		return err
	}
	return resp.Decode(out)
}

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

// TestClientRetriesConnectionErrors: a request that may be re-sent is
// sent once more after a failure where no HTTP response arrived — and
// a POST replays its body from the buffered bytes.
func TestClientRetriesConnectionErrors(t *testing.T) {
	_, ts := testServer(t)

	ft := &flakyTransport{}
	ft.failures.Store(1)
	c := NewClient(ts.URL, &http.Client{Transport: ft}, 0)

	var h HealthResponse
	if err := call(c, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		t.Fatalf("health after 1 injected failure: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2 (1 failure + 1 success)", got)
	}

	// A POST replays its body on the re-send.
	ft.failures.Store(1)
	ft.attempts.Store(0)
	var batch BatchQueryResponse
	if err := call(c, http.MethodPost, "/v1/query/batch", BatchQueryRequest{
		Queries: []BatchQueryItem{{Q: "olap", K: 3}},
	}, &batch); err != nil {
		t.Fatalf("batch after injected failure: %v", err)
	}
	if len(batch.Answers) != 1 || len(batch.Answers[0].Results) == 0 {
		t.Errorf("replayed batch answered %+v", batch)
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

// TestClientRetriesExhausted: a second consecutive connection failure
// surfaces the transport error — there is one re-send, never more.
func TestClientRetriesExhausted(t *testing.T) {
	_, ts := testServer(t)
	ft := &flakyTransport{}
	ft.failures.Store(5)
	c := NewClient(ts.URL, &http.Client{Transport: ft}, 0)
	if err := call(c, http.MethodGet, "/v1/healthz", nil, nil); err == nil {
		t.Fatal("want an error after the re-send failed too")
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2 (initial + 1 re-send)", got)
	}
}

// TestClientSendOnceNeverRetries: resend=false is exactly one attempt,
// so a request that changes state (the router's /v1/reformulate) can
// never be silently re-sent after a transport failure that may have
// landed server-side.
func TestClientSendOnceNeverRetries(t *testing.T) {
	_, ts := testServer(t)
	ft := &flakyTransport{}
	ft.failures.Store(1)
	c := NewClient(ts.URL, &http.Client{Transport: ft}, 0)

	if _, err := c.Do(context.Background(), http.MethodGet, "/v1/healthz", nil, nil, false); err == nil {
		t.Fatal("want the injected transport error surfaced, not re-sent away")
	}
	if got := ft.attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want exactly 1", got)
	}

	// Same failure, resend=true: the re-send answers.
	ft.failures.Store(1)
	ft.attempts.Store(0)
	resp, err := c.Do(context.Background(), http.MethodGet, "/v1/healthz", nil, nil, true)
	if err != nil || resp.Status != http.StatusOK {
		t.Fatalf("Do after one injected failure: resp=%+v err=%v", resp, err)
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
}

// TestClientNeverRetriesHTTPErrors: an HTTP error status is a real
// answer — the client must not replay the request, and Decode turns it
// back into the APIError Fail wrote.
func TestClientNeverRetriesHTTPErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		Fail(w, r, conflict("raced", 7, 0))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil, 0)
	err := call(c, http.MethodGet, "/v1/rates", nil, &RatesResponse{})
	apiErr, ok := err.(*APIError)
	if !ok || !apiErr.IsConflict() || apiErr.Version != 7 {
		t.Fatalf("error = %v, want the decoded 409", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hit %d times, want exactly 1 — HTTP statuses are never re-sent", got)
	}
}

// TestClientRequestTimeout: NewClient's timeout bounds each attempt on
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

	c := NewClient(ts.URL, nil, 50*time.Millisecond)
	t0 := time.Now()
	_, err := c.Do(context.Background(), http.MethodGet, "/v1/healthz", nil, nil, false)
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
// and a cancelled context is never re-sent past.
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

	c := NewClient(ts.URL, nil, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if _, err := c.Do(ctx, http.MethodGet, "/v1/healthz", nil, nil, true); err == nil {
		t.Fatal("want an error from the expired caller context")
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("returned after %v — the 10s attempt timeout must not extend the caller's 50ms deadline, and a dead context is never re-sent", elapsed)
	}
}

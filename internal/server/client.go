// client.go is the typed Go client of the v1 HTTP surface defined in
// api.go: one method per endpoint, the shared DTOs on both ends, and
// every non-2xx response decoded into an *APIError carrying the stable
// machine-readable code from the v1 error envelope.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// APIError is a v1 error on every side of the wire: the client decodes
// every non-2xx response into it, and the server and the router answer
// every error from one through Fail. It carries the HTTP status, the
// envelope's stable code, human message and request ID, the winning
// state of a version_conflict and the one response header an error can
// carry.
type APIError struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the stable machine-readable error code (one of the Code*
	// constants; clients switch on this, never on Message).
	Code string
	// Message is the human-readable detail. May change between releases.
	Message string
	// RequestID is the server-assigned request ID for log correlation.
	RequestID string
	// Version is the winning rates version of a version_conflict on the
	// rates axis (/v1/reformulate, POST /v1/rates' ifVersion).
	Version uint64
	// Generation is the served corpus generation of a version_conflict on
	// the generation axis (/v1/corpus/swap, POST /v1/rates' ifGeneration).
	Generation uint64
	// Allow is a 405's Allow header; RetryAfter a 503's Retry-After.
	Allow, RetryAfter string
}

// Error renders "code: message (http STATUS)".
func (e *APIError) Error() string {
	var b strings.Builder
	if e.Code != "" {
		b.WriteString(e.Code)
		b.WriteString(": ")
	}
	b.WriteString(e.Message)
	b.WriteString(" (http ")
	b.WriteString(strconv.Itoa(e.Status))
	b.WriteString(")")
	return b.String()
}

// IsConflict reports whether the error is an optimistic-concurrency
// 409; when true, Version or Generation carries the winning state to
// re-read and retry against.
func (e *APIError) IsConflict() bool { return e.Code == CodeVersionConflict }

// Client is a typed client of the /v1 API. The zero value is not
// usable; construct with NewClient. Methods are safe for concurrent
// use (they share only the underlying http.Client).
type Client struct {
	base    string        // normalized base URL, no trailing slash
	http    *http.Client  // never nil
	timeout time.Duration // per-attempt deadline; 0 = none beyond the caller's ctx
	retries int           // extra attempts after a transport-level failure
}

// ClientOption configures optional Client behaviour.
type ClientOption func(*Client)

// WithRequestTimeout bounds every request attempt with its own
// deadline, layered under (never extending) the caller's context. The
// zero-value http.Client never times out on its own, so a hung replica
// would otherwise pin the caller forever — the router sets this on
// every replica client.
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetries retries a request up to n extra times after a
// transport-level failure (connection refused/reset, per-attempt
// timeout) — errors where no HTTP response arrived at all. HTTP error
// statuses are never retried here; they are real answers. Requests with
// bodies are replayed from their buffered bytes. A transport failure
// can also mean the reply was lost AFTER the server acted, so the
// budget is only safe for idempotent calls — non-idempotent dispatches
// (the router's /v1/reformulate) go through DoRawOnce, which bypasses
// it.
func WithRetries(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.retries = n
		}
	}
}

// NewClient builds a client for a server at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient uses
// http.DefaultClient; pass a custom one for timeouts or transports.
func NewClient(baseURL string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the normalized base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// Query runs GET /v1/query. k <= 0 uses the server default of 10.
func (c *Client) Query(ctx context.Context, q string, k int) (*QueryResponse, error) {
	v := url.Values{"q": {q}}
	if k > 0 {
		v.Set("k", strconv.Itoa(k))
	}
	var out QueryResponse
	if err := c.get(ctx, "/v1/query", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryBatch runs POST /v1/query/batch: up to MaxBatchQueries queries
// answered under ONE rates snapshot with at most ⌈unique/BlockSize⌉
// kernel executions server-side. Answers come back in request order,
// each identical to its single Query twin.
func (c *Client) QueryBatch(ctx context.Context, req BatchQueryRequest) (*BatchQueryResponse, error) {
	var out BatchQueryResponse
	if err := c.post(ctx, "/v1/query/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reformulate runs GET /v1/reformulate. feedback lists the marked
// relevant node IDs; mode is "structure", "content", "both" or ""
// (structure). version, when non-zero, is the optimistic concurrency
// token — a lost race returns an *APIError with IsConflict() true and
// Version set to the winning rates version.
func (c *Client) Reformulate(ctx context.Context, q string, feedback []int64, mode string, version uint64) (*ReformulateResponse, error) {
	ids := make([]string, len(feedback))
	for i, id := range feedback {
		ids[i] = strconv.FormatInt(id, 10)
	}
	v := url.Values{"q": {q}, "feedback": {strings.Join(ids, ",")}}
	if mode != "" {
		v.Set("mode", mode)
	}
	if version != 0 {
		v.Set("version", strconv.FormatUint(version, 10))
	}
	var out ReformulateResponse
	if err := c.get(ctx, "/v1/reformulate", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CorpusSwap runs POST /v1/corpus/swap: atomically replace the served
// corpus with a snapshot from the server's swap directory. A lost
// generation race returns an *APIError with IsConflict() true and
// Generation set to the served generation. The endpoint is opt-in
// server-side (WithSwapDir); a server without it answers 403.
func (c *Client) CorpusSwap(ctx context.Context, req CorpusSwapRequest) (*CorpusSwapResponse, error) {
	var out CorpusSwapResponse
	if err := c.post(ctx, "/v1/corpus/swap", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RatesPublish runs POST /v1/rates: publish an already-trained rate
// vector through the replica's optimistic CAS. This is the fleet
// propagation primitive — after one replica reformulates, the router
// replays the resulting vector onto every other replica. A lost race
// returns an *APIError with IsConflict() true and Version set to the
// winning rates version; a stale IfGeneration sets Generation to the
// served generation instead.
func (c *Client) RatesPublish(ctx context.Context, req RatesPublishRequest) (*RatesResponse, error) {
	var out RatesResponse
	if err := c.post(ctx, "/v1/rates", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Rates runs GET /v1/rates.
func (c *Client) Rates(ctx context.Context) (*RatesResponse, error) {
	var out RatesResponse
	if err := c.get(ctx, "/v1/rates", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health runs GET /v1/healthz.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.get(ctx, "/v1/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats runs GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.get(ctx, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ProfileGet runs GET /v1/profile/{id}. An unknown id returns an
// *APIError with Code == CodeProfileNotFound.
func (c *Client) ProfileGet(ctx context.Context, id string) (*ProfileResponse, error) {
	var out ProfileResponse
	if err := c.do(ctx, http.MethodGet, c.base+"/v1/profile/"+url.PathEscape(id), nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ProfileUpdate runs PUT /v1/profile/{id}: create the profile or
// replace its declared mixture and beta (the revision history and the
// stamps of the last training round are preserved server-side).
func (c *Client) ProfileUpdate(ctx context.Context, id string, req ProfileUpdateRequest) (*ProfileResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	var out ProfileResponse
	if err := c.do(ctx, http.MethodPut, c.base+"/v1/profile/"+url.PathEscape(id), hdr, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ProfileDelete runs DELETE /v1/profile/{id}. Deleting an id that does
// not exist succeeds (the operation is idempotent server-side).
func (c *Client) ProfileDelete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, c.base+"/v1/profile/"+url.PathEscape(id), nil, nil, nil)
}

// QueryProfile runs GET /v1/query?profile={id}: the personalized twin
// of Query. The response reports Personalized and the answer source
// in Cache ("hit", "combined" or "global").
func (c *Client) QueryProfile(ctx context.Context, q string, k int, profileID string) (*QueryResponse, error) {
	v := url.Values{"q": {q}, "profile": {profileID}}
	if k > 0 {
		v.Set("k", strconv.Itoa(k))
	}
	var out QueryResponse
	if err := c.get(ctx, "/v1/query", v, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RawResponse is a fully-read HTTP response: status line, headers and
// body bytes. DoRaw returns it so a proxying caller (the router) can
// forward a replica's answer byte-identically, whatever its status.
type RawResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// DoRaw executes method against pathAndQuery (e.g. "/v1/query?q=olap")
// with the given extra headers and optional body, applying the
// client's per-attempt timeout and connection-error retries, and
// returns the response verbatim — no status interpretation, no
// envelope decoding. This is the router's proxy primitive: single-query
// and explain traffic is forwarded through it so success bodies (and
// replica-rendered error envelopes) stay byte-identical end to end.
func (c *Client) DoRaw(ctx context.Context, method, pathAndQuery string, header http.Header, body []byte) (*RawResponse, error) {
	resp, err := c.roundTrip(ctx, method, c.base+pathAndQuery, header, body)
	if err != nil {
		return nil, err
	}
	raw, _ := io.ReadAll(resp.Body) // roundTrip already buffered it
	resp.Body.Close()
	return &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// DoRawOnce is DoRaw with the retry budget bypassed: exactly one
// attempt, whatever WithRetries configured. A transport failure can
// mean the server acted and only the reply was lost; a non-idempotent
// dispatch (reformulation applies feedback) must surface that failure
// instead of silently re-sending — a double-applied reformulation
// would corrupt the learned rates and the version sequence.
func (c *Client) DoRawOnce(ctx context.Context, method, pathAndQuery string, header http.Header, body []byte) (*RawResponse, error) {
	resp, err := c.attempt(ctx, method, c.base+pathAndQuery, header, body)
	if err != nil {
		return nil, err
	}
	raw, _ := io.ReadAll(resp.Body) // attempt already buffered it
	resp.Body.Close()
	return &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// get issues a GET with query parameters and decodes into out.
func (c *Client) get(ctx context.Context, path string, v url.Values, out any) error {
	u := c.base + path
	if len(v) > 0 {
		u += "?" + v.Encode()
	}
	return c.do(ctx, http.MethodGet, u, nil, nil, out)
}

// post issues a POST with a JSON body and decodes into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	return c.do(ctx, http.MethodPost, c.base+path, hdr, body, out)
}

// maxErrorBody bounds how much of an error response the client reads.
const maxErrorBody = 64 << 10

// do executes the request, decoding 2xx into out and everything else
// into an *APIError via the v1 envelope (falling back to the raw body
// as Message when the server — or an intermediary — answered with
// something that is not the envelope).
func (c *Client) do(ctx context.Context, method, url string, header http.Header, body []byte, out any) error {
	resp, err := c.roundTrip(ctx, method, url, header, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil // bodyless success (204)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// roundTrip is the single request executor: it rebuilds the request
// per attempt (body replayed from its bytes), layers the per-attempt
// timeout under the caller's context, reads the whole response body
// before the attempt's deadline is released, and retries
// transport-level failures — errors where no HTTP response arrived —
// up to the configured retry budget. It never retries once a response
// (of any status) was received, and never retries past a cancelled
// caller context.
func (c *Client) roundTrip(ctx context.Context, method, url string, header http.Header, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.attempt(ctx, method, url, header, body)
		if err == nil {
			return resp, nil
		}
		if attempt >= c.retries || ctx.Err() != nil {
			return nil, err
		}
	}
}

// attempt runs one HTTP exchange under its own timeout (when
// configured), buffering the body so the deferred cancel cannot abort
// a caller's later read.
func (c *Client) attempt(ctx context.Context, method, url string, header http.Header, body []byte) (*http.Response, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = append([]string(nil), vs...)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(buf))
	return resp, nil
}

// decodeAPIError turns a non-2xx response into an *APIError: Fail's
// inverse, so Fail re-encodes it to the same body and headers.
func decodeAPIError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	apiErr := &APIError{Status: resp.StatusCode,
		Allow: resp.Header.Get("Allow"), RetryAfter: resp.Header.Get("Retry-After")}
	var env struct { // every envelope Fail writes
		Error      ErrorInfo `json:"error"`
		Version    uint64    `json:"version"`
		Generation uint64    `json:"generation"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.RequestID = env.Error.RequestID
		apiErr.Version = env.Version
		apiErr.Generation = env.Generation
		return apiErr
	}
	apiErr.Code = codeForStatus(resp.StatusCode)
	apiErr.Message = strings.TrimSpace(string(body))
	if apiErr.Message == "" {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	return apiErr
}

// codeForStatus maps an HTTP status onto the default machine-readable
// error code: the code of a non-2xx answer that is not the envelope.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusNotFound:
		return CodeInvalidArgument
	case http.StatusConflict:
		return CodeVersionConflict
	case http.StatusServiceUnavailable:
		return CodeShed
	case http.StatusGatewayTimeout:
		return CodeDeadline
	case statusClientClosedRequest:
		return CodeCancelled
	default:
		return CodeInternal
	}
}

// client.go is the outbound half of the v1 wire: one request executor
// (Client.Do), the fully-read answer it returns (RawResponse) and
// Fail's inverse over that answer (RawResponse.Decode), which turns
// every non-2xx response back into the *APIError carrying the stable
// machine-readable code from the v1 error envelope.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// APIError is a v1 error on every side of the wire: RawResponse.Decode
// turns every non-2xx answer into one, and the server and the router
// answer every error from one through Fail. It carries the HTTP status,
// the envelope's stable code, human message and request ID, the winning
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

// Client sends requests to one server of the /v1 API. The zero value is
// not usable; construct with NewClient. Do is safe for concurrent use
// (calls share only the underlying http.Client).
type Client struct {
	base    string        // normalized base URL, no trailing slash
	http    *http.Client  // never nil
	timeout time.Duration // per-attempt deadline; 0 = none beyond the caller's ctx
}

// NewClient builds a client for a server at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient uses http.DefaultClient.
// A positive timeout bounds every attempt with its own deadline,
// layered under (never extending) the caller's context: the zero-value
// http.Client never times out on its own, so a hung server would
// otherwise pin the caller forever.
func NewClient(baseURL string, httpClient *http.Client, timeout time.Duration) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient, timeout: timeout}
}

// BaseURL returns the normalized base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// RawResponse is a fully-read HTTP response: status line, headers and
// body bytes, so a proxying caller (the router) can forward a server's
// answer byte-identically, whatever its status.
type RawResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// Do is the one request executor: it sends method to pathAndQuery (e.g.
// "/v1/query?q=olap") with the given headers and optional body, under
// the client's per-attempt timeout, and returns the answer verbatim —
// no status interpretation, no envelope decoding. resend says whether
// the request may be sent a second time after a transport failure (an
// error where no HTTP response arrived): once, and never past a
// cancelled caller context. A transport failure can mean the server
// acted and only the reply was lost, so a request that changes state
// must pass resend=false; an HTTP answer of any status is never re-sent.
func (c *Client) Do(ctx context.Context, method, pathAndQuery string, header http.Header, body []byte, resend bool) (*RawResponse, error) {
	resp, err := c.attempt(ctx, method, c.base+pathAndQuery, header, body)
	if err != nil && resend && ctx.Err() == nil {
		resp, err = c.attempt(ctx, method, c.base+pathAndQuery, header, body)
	}
	return resp, err
}

// attempt runs one HTTP exchange under its own timeout (when
// configured), reading the whole body before the deadline is released.
func (c *Client) attempt(ctx context.Context, method, url string, header http.Header, body []byte) (*RawResponse, error) {
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
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: buf}, nil
}

// maxErrorBody bounds how much of an error body Decode reads.
const maxErrorBody = 64 << 10

// Decode is Fail's inverse: a 2xx body decodes into out (a nil out
// skips it), and any other status comes back as the *APIError that Fail
// re-encodes to the same body and headers. A non-2xx body that is not
// the envelope (an intermediary's) becomes the Message under the
// status's default code.
func (r *RawResponse) Decode(out any) error {
	if r.Status >= 200 && r.Status <= 299 {
		if out == nil {
			return nil
		}
		return json.Unmarshal(r.Body, out)
	}
	body := r.Body
	if len(body) > maxErrorBody {
		body = body[:maxErrorBody]
	}
	apiErr := &APIError{Status: r.Status,
		Allow: r.Header.Get("Allow"), RetryAfter: r.Header.Get("Retry-After")}
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
	apiErr.Code = codeForStatus(r.Status)
	apiErr.Message = strings.TrimSpace(string(body))
	if apiErr.Message == "" {
		apiErr.Message = http.StatusText(r.Status)
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

package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ---- request IDs ----

var reqFallback atomic.Uint64

// NewRequestID returns a 16-hex-character random request identifier.
// IDs come from crypto/rand; if the system entropy source fails (it
// realistically cannot on the platforms we serve from) a process-local
// counter keeps IDs unique, just not unpredictable.
func NewRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "fallback-" + strconv.FormatUint(reqFallback.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}

// ---- per-request traces ----

// Trace is one request's span record: an ID plus a sequence of named
// events with offsets from the trace start. It is deliberately tiny —
// the goal is stage-level attribution (parse → base set → solve →
// render) in access and slow-query logs, not distributed tracing.
//
// All methods are safe on a nil receiver (no-ops), so code paths that
// may run outside a traced request never need to branch.
type Trace struct {
	id    string
	start time.Time

	mu     sync.Mutex
	events []TraceEvent
}

// TraceEvent is one named point in a request's lifetime. Offset is the
// duration from the trace start at which the event was recorded, i.e.
// the CUMULATIVE pipeline time up to the end of the named stage.
type TraceEvent struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"-"`
	// OffsetMS mirrors Offset in fractional milliseconds for the JSON
	// logs (time.Duration would serialize as opaque nanoseconds).
	OffsetMS float64 `json:"offsetMs"`
	Detail   string  `json:"detail,omitempty"`
}

// NewTrace starts a trace with the given ID.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace start time (zero on a nil trace).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Event records a named event at the current offset. No-op on nil.
func (t *Trace) Event(name, detail string) {
	if t == nil {
		return
	}
	off := time.Since(t.start)
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name:     name,
		Offset:   off,
		OffsetMS: float64(off) / float64(time.Millisecond),
		Detail:   detail,
	})
	t.mu.Unlock()
}

// Eventf is Event with a formatted detail string.
func (t *Trace) Eventf(name, format string, args ...any) {
	if t == nil {
		return
	}
	t.Event(name, fmt.Sprintf(format, args...))
}

// Events returns a copy of the recorded events (nil on a nil trace).
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

type traceCtxKey struct{}

// ContextWithTrace attaches a trace to a context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the context's trace, or nil (every Trace method is
// nil-safe, so callers can use the result unconditionally).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// RequestIDFrom returns the request ID of the context's trace, or "".
func RequestIDFrom(ctx context.Context) string {
	return TraceFrom(ctx).ID()
}

// ---- HTTP middleware ----

// RequestIDHeader is the response (and accepted inbound) header that
// carries the per-request ID.
const RequestIDHeader = "X-Request-ID"

// Middleware instruments HTTP handlers: it assigns (or propagates) a
// request ID, starts a per-request Trace, records per-handler request
// counts and latency histograms, emits a JSON access-log line per
// request, and a slow-query line (with the full span record) when a
// request exceeds SlowThreshold.
type Middleware struct {
	requests *CounterVec   // {handler, code}
	latency  *HistogramVec // {handler}
	slow     *Counter
	inflight *Gauge

	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog *Logger
	// SlowLog, when non-nil and SlowThreshold > 0, receives one JSON
	// line (including span events) per request slower than the
	// threshold.
	SlowLog       *Logger
	SlowThreshold time.Duration
}

// NewMiddleware registers the middleware's metric families on reg
// under the given namespace prefix (e.g. "afq"):
//
//	<ns>_http_requests_total{handler,code}
//	<ns>_http_request_seconds{handler}   (histogram)
//	<ns>_http_slow_requests_total
//	<ns>_http_inflight_requests
func NewMiddleware(reg *Registry, namespace string) *Middleware {
	return &Middleware{
		requests: reg.NewCounterVec(namespace+"_http_requests_total",
			"HTTP requests served, by handler route and status code.", "handler", "code"),
		latency: reg.NewHistogramVec(namespace+"_http_request_seconds",
			"HTTP request latency in seconds, by handler route.",
			DefaultLatencyBuckets(), "handler"),
		slow: reg.NewCounter(namespace+"_http_slow_requests_total",
			"Requests slower than the slow-query threshold."),
		inflight: reg.NewGauge(namespace+"_http_inflight_requests",
			"Requests currently being served."),
	}
}

// Requests exposes the per-handler request counter family (the /stats
// endpoint reads it so JSON stats and /metrics can never drift).
func (m *Middleware) Requests() *CounterVec { return m.requests }

// SlowCount returns the number of slow requests recorded.
func (m *Middleware) SlowCount() uint64 { return m.slow.Count() }

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush passes through so streaming handlers keep working.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Wrap instruments next under the given route label. The route, not
// the raw URL path, labels the metrics, keeping cardinality bounded.
// A nil Middleware returns next unchanged.
func (m *Middleware) Wrap(route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		tr := NewTrace(id)
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		m.inflight.Add(1)
		next.ServeHTTP(sw, r.WithContext(ContextWithTrace(r.Context(), tr)))
		m.inflight.Add(-1)
		if sw.code == 0 { // handler wrote nothing at all
			sw.code = http.StatusOK
		}
		dur := time.Since(tr.Start())
		m.requests.With(route, strconv.Itoa(sw.code)).Inc()
		m.latency.With(route).Observe(dur.Seconds())
		durMS := float64(dur) / float64(time.Millisecond)
		if m.AccessLog != nil { // a nil logger would drop the line, but only after its arguments were built
			m.AccessLog.Log(
				"ts", time.Now().UTC().Format(time.RFC3339Nano),
				"id", id,
				"handler", route,
				"method", r.Method,
				"url", r.URL.RequestURI(),
				"status", sw.code,
				"bytes", sw.bytes,
				"durMs", durMS,
			)
		}
		if m.SlowThreshold > 0 && dur >= m.SlowThreshold {
			m.slow.Inc()
			m.SlowLog.Log(
				"ts", time.Now().UTC().Format(time.RFC3339Nano),
				"msg", "slow query",
				"id", id,
				"handler", route,
				"method", r.Method,
				"url", r.URL.RequestURI(),
				"status", sw.code,
				"durMs", durMS,
				"thresholdMs", float64(m.SlowThreshold)/float64(time.Millisecond),
				"spans", tr.Events(),
			)
		}
	})
}

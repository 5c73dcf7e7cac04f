package server

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"time"

	"authorityflow/internal/obs"
)

// AdmissionOptions bound the server's concurrent query work — the
// load-shedding half of the PR-4 deadline-aware query lifecycle. The
// zero value disables every limit (the pre-PR-4 behaviour).
//
// The model is deliberately simple: one semaphore of MaxInflight slots
// guards the EXPENSIVE endpoints (/query, /explain, /reformulate —
// each can run a power-iteration solve); cheap operator endpoints
// (/healthz, /stats, /rates, /metrics) are never throttled, so an
// overloaded replica can still be inspected. A request that cannot get
// a slot waits at most QueueWait and is then shed with 503 +
// Retry-After; a request that got a slot runs under a deadline of
// QueryTimeout (clients may SHORTEN it per request via the
// X-Request-Timeout-Ms header, never extend it), and a fired deadline
// surfaces as 504 after the kernel abandons the solve within one
// sweep.
type AdmissionOptions struct {
	// MaxInflight caps concurrently admitted expensive requests.
	// 0 = unlimited.
	MaxInflight int
	// QueueWait is how long a request may wait for an admission slot
	// before being shed with 503. 0 = shed immediately when saturated.
	QueueWait time.Duration
	// QueryTimeout is the server-side deadline for admitted requests,
	// measured from admission-wrapper entry (queue wait counts against
	// it, so a shed-or-slow request cannot exceed the operator's
	// latency budget by queueing first). 0 = no server-side deadline;
	// the X-Request-Timeout-Ms header is still honored.
	QueryTimeout time.Duration
}

// WithAdmission configures admission control and per-request deadlines
// on the expensive endpoints.
func WithAdmission(o AdmissionOptions) Option {
	return func(so *serverOptions) { so.admission = o }
}

// timeoutHeader is the request header through which a client may
// shorten (never extend) the server's per-request deadline.
const timeoutHeader = "X-Request-Timeout-Ms"

// admission is the runtime form of AdmissionOptions.
type admission struct {
	sem          chan struct{} // nil when MaxInflight == 0
	queueWait    time.Duration
	queryTimeout time.Duration
	retryAfter   string // precomputed Retry-After seconds for 503s
}

func newAdmission(o AdmissionOptions) *admission {
	a := &admission{queueWait: o.QueueWait, queryTimeout: o.QueryTimeout}
	if o.MaxInflight > 0 {
		a.sem = make(chan struct{}, o.MaxInflight)
	}
	// Retry-After: the queue wait rounded up to whole seconds, floor 1
	// — "try again after roughly one shedding window".
	a.retryAfter = strconv.Itoa(max(1, int(math.Ceil(o.QueueWait.Seconds()))))
	return a
}

// effectiveTimeout resolves the per-request deadline: the server cap,
// shortened by a valid X-Request-Timeout-Ms header. ok reports whether
// any deadline applies.
func effectiveTimeout(r *http.Request, cap time.Duration) (d time.Duration, ok bool, err error) {
	d, ok = cap, cap > 0
	if hs := r.Header.Get(timeoutHeader); hs != "" {
		ms, perr := strconv.ParseInt(hs, 10, 64)
		if perr != nil || ms <= 0 {
			return 0, false, badRequest("bad " + timeoutHeader + " header: must be a positive integer of milliseconds")
		}
		// A value too large to represent as a Duration shortens nothing.
		if ms > math.MaxInt64/int64(time.Millisecond) {
			return d, ok, nil
		}
		if hd := time.Duration(ms) * time.Millisecond; !ok || hd < d {
			d, ok = hd, true // clients may only shorten the server cap
		}
	}
	return d, ok, nil
}

// guard wraps an expensive handler with the admission semaphore and
// the per-request deadline. It must run INSIDE the observability
// middleware (so shed responses carry a request ID and count in the
// per-handler metrics).
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	a := s.adm
	return func(w http.ResponseWriter, r *http.Request) {
		// Deadline first: queue wait burns request budget, not extra.
		d, hasDeadline, err := effectiveTimeout(r, a.queryTimeout)
		if err != nil {
			s.fail(w, r, "", err)
			return
		}
		ctx := r.Context()
		if hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
			r = r.WithContext(ctx)
		}

		if a.sem != nil {
			start := time.Now()
			select {
			case a.sem <- struct{}{}: // fast path: free slot
			default:
				if !s.waitForSlot(w, r, a, start) {
					return
				}
			}
			s.obs.queueWaitSeconds.Observe(time.Since(start).Seconds())
			s.obs.inflight.Add(1)
			defer func() {
				s.obs.inflight.Add(-1)
				<-a.sem
			}()
		}
		h(w, r)
	}
}

// waitForSlot blocks for at most the queue-wait budget (and no longer
// than the request's own deadline). It reports whether a slot was
// acquired; on failure the 503/504/499 response has been written.
func (s *Server) waitForSlot(w http.ResponseWriter, r *http.Request, a *admission, start time.Time) bool {
	tr := obs.TraceFrom(r.Context())
	if a.queueWait <= 0 {
		s.shed(w, r, a, time.Since(start))
		return false
	}
	timer := time.NewTimer(a.queueWait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		tr.Eventf("admission", "queued=%s", time.Since(start))
		return true
	case <-timer.C:
		s.shed(w, r, a, time.Since(start))
		return false
	case <-r.Context().Done():
		// The deadline (or the client) fired while still queued: the
		// request dies without ever holding a slot.
		tr.Eventf("admission", "abandoned queued=%s err=%v", time.Since(start), r.Context().Err())
		s.fail(w, r, "", r.Context().Err())
		return false
	}
}

// shed writes the 503 + Retry-After load-shedding response.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, a *admission, waited time.Duration) {
	s.obs.shedTotal.Inc()
	obs.TraceFrom(r.Context()).Eventf("shed", "waited=%s", waited)
	Fail(w, r, &APIError{Status: http.StatusServiceUnavailable, Code: CodeShed, RetryAfter: a.retryAfter,
		Message: "server saturated: all " + strconv.Itoa(cap(a.sem)) + " query slots busy; retry after Retry-After seconds"})
}

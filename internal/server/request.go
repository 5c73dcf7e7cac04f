// request.go is the one way through every endpoint of the server:
//
//	pin → parse → run → render
//
// serve pins ONE engine state first, so every node id is validated
// against the graph every later step runs on; parses the request in one
// order (q and k, the read contract, the endpoint's own parameters, then
// ?profile=) and emits the parse event; runs the endpoint over the pin,
// each of its steps emitting its own stage event; and renders the reply
// once, with the render event. An error from any step goes to fail, the
// one error mapper; the error's type says what it answers, and Fail
// encodes the answer.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/obs"
	"authorityflow/internal/profile"
)

// endpoint is what one route adds to the skeleton.
type endpoint struct {
	// pattern is the route the endpoint is mounted under; guarded puts it
	// behind the admission guard (it may run a kernel solve).
	pattern string
	guarded bool
	// query: the request carries q and k; contract: the read contract's
	// mode, budget and format; profile: ?profile=.
	query, contract, profile bool
	// parse, when set, reads the endpoint's own parameters into rq,
	// validating node ids against rq.g, and returns the parse event's
	// detail.
	parse func(s *Server, rq *request, r *http.Request) (string, error)
	// run answers over rq.pin.
	run func(s *Server, rq *request) (reply, error)
}

// request is a request as the skeleton carries it: the pinned engine
// state and everything parse read.
type request struct {
	ctx    context.Context
	tr     *obs.Trace
	pin    *core.Pinned
	g      *graph.Graph // the pinned generation's: validation and rendering read it
	method string

	v       url.Values
	q       *ir.Query
	spelled string // q.String(), the query as answers spell it
	k       int
	rp      ReadParams
	profile string // the profile addressed (?profile= or /v1/profile/{id}); "" on the global path

	target graph.NodeID // /v1/explain, /v1/audit

	feedback    []graph.NodeID // /v1/reformulate
	confidences []float64
	strategy    core.ReformulateOptions

	qs    []*ir.Query // /v1/query/batch
	ks    []int
	modes []core.Mode

	rates     *graph.Rates // POST /v1/rates: the validated vector; nil on a read
	ifVersion uint64

	swap CorpusSwapRequest // /v1/corpus/swap

	update ProfileUpdateRequest // PUT/POST /v1/profile/{id}
}

// reply is a run's answer, rendered once: an already-encoded JSON body
// (a stored result hit), an export streamed under its own Content-Type,
// a JSON value, or — none of the three — the 204. The render event
// reports what=n; a non-zero gen sets the X-Afq-* state headers to
// (gen, version).
type reply struct {
	body         []byte
	export       func(io.Writer) error
	contentType  string
	json         any
	what         string
	n            int
	gen, version uint64
}

// serve is the skeleton as an http.HandlerFunc.
func (s *Server) serve(ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		pin := s.eng.Pin()
		rq := &request{ctx: r.Context(), tr: obs.TraceFrom(r.Context()), pin: pin, g: pin.Corpus().Graph(),
			method: r.Method, rp: ReadParams{Mode: core.ModeAuthority}}
		detail, err := s.parse(ep, rq, r)
		if err == nil {
			rq.tr.Event("parse", detail)
			var rep reply
			if rep, err = ep.run(s, rq); err == nil {
				s.render(w, rq, rep)
				return
			}
		}
		s.fail(w, r, rq.profile, err)
	}
}

// parse reads a request in the one order every endpoint shares.
func (s *Server) parse(ep endpoint, rq *request, r *http.Request) (string, error) {
	var err error
	if ep.query {
		rq.v = r.URL.Query()
		if rq.q, rq.k, err = parseQuery(rq.v); err != nil {
			return "", err
		}
		rq.spelled = rq.q.String()
	}
	if ep.contract {
		if rq.rp, err = ValidateReadParams(rq.v); err != nil {
			return "", badRequest(err.Error())
		}
	}
	var detail string
	if ep.parse != nil {
		detail, err = ep.parse(s, rq, r)
	}
	if err == nil && ep.profile {
		err = s.resolveProfile(rq)
	}
	return detail, err
}

// render writes a reply.
func (s *Server) render(w http.ResponseWriter, rq *request, rep reply) {
	rq.tr.Event("render", rep.what+"="+strconv.Itoa(rep.n))
	if rep.gen != 0 {
		setStateHeaders(w, rep.gen, rep.version)
	}
	switch {
	case rep.body != nil:
		writeBody(w, http.StatusOK, rep.body)
	case rep.export != nil:
		w.Header().Set("Content-Type", rep.contentType)
		_ = rep.export(w)
	case rep.json != nil:
		WriteJSON(w, http.StatusOK, rep.json)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// badRequest is the invalid_argument 400.
func badRequest(msg string) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument, Message: msg}
}

// conflict is the version_conflict 409 naming the winning state: the
// rates version, or the corpus generation of a generation race.
func conflict(msg string, version, generation uint64) *APIError {
	return &APIError{Status: http.StatusConflict, Code: CodeVersionConflict, Message: msg,
		Version: version, Generation: generation}
}

// errPostRequired is the 405 of a route that only takes POST.
var errPostRequired = &APIError{Status: http.StatusMethodNotAllowed, Code: CodeInvalidArgument,
	Message: "POST required", Allow: http.MethodPost}

// inputError is a core error the request's input caused: a 400 while the
// request is alive, its context's answer once that has died.
type inputError struct{ error }

func (e inputError) Unwrap() error { return e.error }

// statusClientClosedRequest is the (nginx-originated, de-facto
// standard) status for "the client went away before we could answer".
// The client never sees it — its connection is gone — but the access
// log and per-handler metrics need a code that distinguishes
// client-abandoned work from server-side timeouts.
const statusClientClosedRequest = 499

// fail is the one error mapper: an *APIError answers itself,
// profile.ErrNotFound is the 404 naming profileID, a live request's
// inputError is a 400, a deadline is the 504 (afq_http_timeout_total)
// and a cancellation the 499 (afq_http_cancelled_total), and anything
// else is a 500. Fail encodes the answer.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, profileID string, err error) {
	var e *APIError
	switch {
	case errors.As(err, &e):
	case errors.Is(err, profile.ErrNotFound):
		e = &APIError{Status: http.StatusNotFound, Code: CodeProfileNotFound,
			Message: "no profile exists under id " + strconv.Quote(profileID) + "; create it with PUT /v1/profile/" + profileID}
	case errors.As(err, new(inputError)) && r.Context().Err() == nil:
		e = badRequest(err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		s.obs.timeoutTotal.Inc()
		obs.TraceFrom(r.Context()).Event("deadline", "query deadline exceeded")
		e = &APIError{Status: http.StatusGatewayTimeout, Code: CodeDeadline,
			Message: "query deadline exceeded; the solve was abandoned mid-iteration"}
	case errors.Is(err, context.Canceled):
		s.obs.cancelledTotal.Inc()
		obs.TraceFrom(r.Context()).Event("cancelled", "client closed request")
		e = &APIError{Status: statusClientClosedRequest, Code: CodeCancelled, Message: "client closed request"}
	default:
		e = &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
	}
	Fail(w, r, e)
}

// parseQuery reads /v1/query's q and k under the q/k rule. A k that is
// not a positive integer is out of the rule's range.
func parseQuery(v url.Values) (*ir.Query, int, error) {
	k := 0
	if ks := v.Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil || k == 0 {
			k = -1
		}
	}
	q, k, err := parseQK(v.Get("q"), k, "q parameter required")
	if err != nil {
		return nil, 0, badRequest(err.Error())
	}
	return q, k, nil
}

// parseQK is the q/k rule /v1/query and every batch item share: q is
// not blank (blank is the reader's own spelling of that 400) and
// tokenizes to at least one indexable term, and k, 0 taking the default
// 10, lies in 1..1000.
func parseQK(raw string, k int, blank string) (*ir.Query, int, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, 0, errors.New(blank)
	}
	if k == 0 {
		k = 10
	}
	if k < 0 || k > 1000 {
		return nil, 0, errors.New("k must be in 1..1000")
	}
	q := ir.ParseQuery(raw)
	if len(q.Terms()) == 0 {
		// Punctuation-/stopword-only input tokenizes to nothing; an
		// empty query used to fall through to a meaningless all-zero
		// base distribution. Reject it at the door.
		return nil, 0, errors.New("q contains no indexable terms")
	}
	return q, k, nil
}

// parseNodeID validates one node-ID parameter against g, the pinned
// generation's graph: a decimal integer in [0, NumNodes). Validation and
// use read the same graph, so they cannot disagree across a concurrent
// swap.
func parseNodeID(g *graph.Graph, raw, what string) (graph.NodeID, error) {
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, badRequest("bad or missing " + what + ": " + strconv.Quote(raw))
	}
	if id < 0 || id >= int64(g.NumNodes()) {
		return 0, badRequest(what + " " + raw + " out of range [0, " + strconv.Itoa(g.NumNodes()) + ")")
	}
	return graph.NodeID(id), nil
}

// parseConfidences parses /v1/reformulate's optional confidence list:
// one finite, non-negative weight per feedback object for the
// click-through path. nil (the parameter absent) means explicit marks,
// weight 1 everywhere.
func parseConfidences(raw string, feedbackCount int) ([]float64, error) {
	if raw == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(raw, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, badRequest("bad confidence " + strconv.Quote(part) + ": must be a finite non-negative number")
		}
		out = append(out, v)
	}
	if len(out) != feedbackCount {
		return nil, badRequest(strconv.Itoa(len(out)) + " confidence values for " + strconv.Itoa(feedbackCount) + " feedback objects")
	}
	return out, nil
}

// readLimited reads a request body of at most max bytes; a longer one is
// the 400 tooLarge.
func readLimited(r *http.Request, max int, tooLarge string) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(max)+1))
	if err != nil {
		return nil, badRequest("reading body: " + err.Error())
	}
	if len(body) > max {
		return nil, badRequest(tooLarge)
	}
	return body, nil
}

// readJSON decodes a request body of at most max bytes into v.
func readJSON(r *http.Request, max int, tooLarge string, v any) error {
	body, err := readLimited(r, max, tooLarge)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return badRequest("bad JSON body: " + err.Error())
	}
	return nil
}

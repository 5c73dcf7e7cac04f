// api.go is the single definition point of the server's public HTTP
// surface: every request/response DTO, the stable machine-readable
// error codes and the error envelope.
//
// # Versioning
//
// The whole surface is versioned under /v1 (/metrics alone stays
// unversioned, by Prometheus convention); any other path is a 404:
//
//	GET  /v1/query?q=olap&k=10[&mode=authority|hub][&profile=alice]
//	POST /v1/query/batch          {"queries":[{"q":"olap","k":10,"mode":"hub"}, ...]}
//	GET  /v1/explain?q=olap&target=123[&mode=...][&budget=N]
//	GET  /v1/audit?q=olap&target=123[&mode=...][&budget=N]
//	GET  /v1/reformulate?q=olap&feedback=123,456&mode=...&version=N[&profile=alice]
//	GET|PUT|POST|DELETE /v1/profile/{id}
//	GET  /v1/rates | /v1/healthz | /v1/stats
//
// The four READ surfaces (/v1/query, /v1/query/batch, /v1/explain,
// /v1/audit) share ONE parameter contract for mode and budget — see
// contract.go. (/v1/reformulate's mode is the unrelated, pre-existing
// reformulation-strategy switch.)
//
// # Errors
//
// Every error is answered with one envelope:
//
//	{"error": {"code": "invalid_argument", "message": "...", "requestId": "..."}}
//
// where code is one of the Code* constants below — stable,
// machine-readable strings clients may switch on (messages may change;
// codes may not). A 409 adds the winning state next to the envelope:
// the rates version, or the corpus generation of a generation race. An
// error is an *APIError on both tiers and goes out through Fail.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/obs"
	"authorityflow/internal/profile"
	"authorityflow/internal/storage"
)

// Stable machine-readable error codes of the v1 error envelope. These
// strings are API surface: clients switch on them, so they may never be
// renamed (adding new ones is fine).
const (
	// CodeInvalidArgument: the request itself is malformed — missing or
	// unindexable q, k out of range, bad node IDs, bad confidence list,
	// bad version token, malformed batch body or timeout header. HTTP
	// 400 (or 405 for a wrong method).
	CodeInvalidArgument = "invalid_argument"
	// CodeVersionConflict: the optimistic version token lost its race —
	// rates were republished since the version the client saw. HTTP 409.
	CodeVersionConflict = "version_conflict"
	// CodeShed: the admission queue was saturated; retry after the
	// Retry-After header. HTTP 503.
	CodeShed = "shed"
	// CodeDeadline: the per-request deadline elapsed and the solve was
	// abandoned mid-iteration. HTTP 504.
	CodeDeadline = "deadline"
	// CodeCancelled: the client closed the request before the answer was
	// ready. HTTP 499 (never actually observed by the — departed —
	// client, but kept stable for proxies and logs).
	CodeCancelled = "cancelled"
	// CodeInternal: anything else. HTTP 500.
	CodeInternal = "internal"
	// CodeProfileNotFound: no profile exists under the requested id.
	// HTTP 404 (distinct from CodeInvalidArgument's 404 so clients can
	// tell "create it first" from "bad request").
	CodeProfileNotFound = "profile_not_found"
)

// Response headers of every /v1/query answer: the corpus generation and
// the rates version it was served under — the same two numbers as the
// body's generation and version fields — so a proxy (the router) learns
// what a replica serves without parsing the body.
const (
	HeaderGeneration   = "X-Afq-Generation"
	HeaderRatesVersion = "X-Afq-Rates-Version"
)

// ErrorInfo is the body of the v1 error envelope.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"requestId,omitempty"`
}

// ErrorEnvelope is the uniform v1 error payload.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// ConflictEnvelope is the v1 409 payload of a rates-version race
// (/v1/reformulate, POST /v1/rates): the error envelope plus the
// currently published rates version, so the client can re-read and
// retry against it.
type ConflictEnvelope struct {
	Error   ErrorInfo `json:"error"`
	Version uint64    `json:"version"`
}

// ---- request/response DTOs ----

// Result is one JSON-rendered ranked node.
type Result struct {
	Node    int64   `json:"node"`
	Score   float64 `json:"score"`
	Display string  `json:"display"`
	Snippet string  `json:"snippet,omitempty"`
	InBase  bool    `json:"inBase"`
}

// QueryResponse is the /v1/query payload. Version
// is the rates-snapshot version the ranking ran under; clients that
// later reformulate based on these results should pass it as the
// version parameter to detect concurrent rate changes.
type QueryResponse struct {
	Query string `json:"query"`
	// Mode is the ranking direction the answer was computed under
	// ("hub"); omitted for authority — the pre-contract meaning — so
	// authority bodies stay byte-identical to their pre-mode form.
	Mode       string `json:"mode,omitempty"`
	BaseSet    int    `json:"baseSet"`
	Iterations int    `json:"iterations"`
	Version    uint64 `json:"version"`
	// Generation is the corpus generation the ranking ran on; node IDs
	// in Results are only meaningful against that generation.
	Generation uint64 `json:"generation"`
	// Cache reports how the serving cache produced the answer ("result",
	// "term", or "computed"). Profile-scoped answers report the
	// personalization tier's path instead ("hit", "combined", "global").
	Cache string `json:"cache,omitempty"`
	// Profile names the profile a personalized answer was combined for
	// (the request's profile parameter); absent on global answers.
	Profile string `json:"profile,omitempty"`
	// Personalized reports whether the profile's mixture actually moved
	// the ranking (false when the profile is untrained or none of its
	// topics is in the corpus's term panel — the answer then equals the
	// global ranking).
	Personalized bool     `json:"personalized,omitempty"`
	Results      []Result `json:"results"`
}

// BatchQueryItem is one query of a /v1/query/batch request.
type BatchQueryItem struct {
	// Q is the query string, parsed exactly as /v1/query's q parameter.
	Q string `json:"q"`
	// K is the per-query top-k (0 = the default 10; max 1000).
	K int `json:"k,omitempty"`
	// Mode is the per-item ranking direction, validated under the uniform
	// read contract (contract.go); empty means authority.
	Mode string `json:"mode,omitempty"`
	// Budget is accepted for contract uniformity (validated, unused by
	// batch answers — they carry no contribution lists).
	Budget int `json:"budget,omitempty"`
}

// BatchQueryRequest is the POST /v1/query/batch body.
type BatchQueryRequest struct {
	Queries []BatchQueryItem `json:"queries"`
}

// MaxBatchQueries caps the number of queries one batch may carry.
const MaxBatchQueries = 64

// MaxFeedback caps the number of feedback ids one /v1/reformulate may
// carry: each is explained, concurrently, into a subgraph that lives
// until the reformulation is computed.
const MaxFeedback = 64

// BatchQueryResponse is the /v1/query/batch payload: one QueryResponse
// per request item, in order, each identical to what the corresponding
// single /v1/query call would have returned. Version is the single
// rates-snapshot version the WHOLE batch was answered under (every
// answer's own version equals it).
type BatchQueryResponse struct {
	Version uint64 `json:"version"`
	// Generation is the single corpus generation the WHOLE batch was
	// answered on (every answer's own generation equals it).
	Generation uint64          `json:"generation"`
	Answers    []QueryResponse `json:"answers"`
}

// ReformulateResponse is the /v1/reformulate payload. Rates are the
// rates in force after the reformulation and Version their
// rates-snapshot version: on the global path, those the structure-based
// update published.
type ReformulateResponse struct {
	Query   string `json:"query"`
	Rates   string `json:"rates"`
	Version uint64 `json:"version"`
	// Profile and ProfileRev are set on profile-scoped reformulations
	// (?profile=): the feedback trained the named profile's mixture
	// instead of publishing globally, so Rates and Version are the
	// published ones the training ran under, and ProfileRev is the
	// profile's post-training revision.
	Profile    string          `json:"profile,omitempty"`
	ProfileRev uint64          `json:"profileRev,omitempty"`
	Expansion  []ExpansionTerm `json:"expansion,omitempty"`
	Results    []Result        `json:"results"`
}

// CorpusSwapRequest is the POST /v1/corpus/swap body. Snapshot names
// a binary snapshot FILE inside the server's swap directory (no
// absolute paths, no traversal). IfGeneration, when non-zero, is the
// optimistic concurrency token: the swap publishes only if the served
// generation still equals it; zero means "swap whatever is current".
type CorpusSwapRequest struct {
	Snapshot     string `json:"snapshot"`
	IfGeneration uint64 `json:"ifGeneration,omitempty"`
}

// CorpusSwapResponse is the 200 payload of /v1/corpus/swap.
type CorpusSwapResponse struct {
	Generation   uint64 `json:"generation"`
	RatesVersion uint64 `json:"ratesVersion"`
	Name         string `json:"name"`
	Nodes        int    `json:"nodes"`
	Edges        int    `json:"edges"`
}

// SwapConflictEnvelope is the 409 payload of a generation race
// (/v1/corpus/swap, POST /v1/rates' ifGeneration): the v1 error envelope
// plus the currently served generation, so the operator can re-read and
// retry against it (the generational twin of ConflictEnvelope).
type SwapConflictEnvelope struct {
	Error      ErrorInfo `json:"error"`
	Generation uint64    `json:"generation"`
}

// ExpansionTerm is one content-expansion term in a reformulation
// response.
type ExpansionTerm struct {
	Term   string  `json:"term"`
	Weight float64 `json:"weight"`
}

// ---- the shared explain/audit envelope ----
//
// /v1/explain (format=json) and /v1/audit answer with ONE envelope
// shape: node, score, mode, generation, ratesVersion, and a ranked
// contributions[] block. /v1/explain additionally embeds every
// SubgraphJSON field (target, query, explainedScore, converged,
// iterations, nodes, arcs) — the envelope fields are pure additions, so
// pre-contract explain clients keep decoding.

// Contribution is one ranked entry of the envelope: an explaining-
// subgraph arc ordered by the sensitivity of the target's score to
// perturbing the arc's authority transfer rate (core.AuditArc rendered
// for the wire). From/To follow the ranked direction — for mode=hub
// they are reversed-graph endpoints.
type Contribution struct {
	From        int64   `json:"from"`
	To          int64   `json:"to"`
	Type        string  `json:"type"`
	Rate        float64 `json:"rate"`
	Flow        float64 `json:"flow"`
	Sensitivity float64 `json:"sensitivity"`
}

// NodeContribution aggregates arc sensitivities per source node.
type NodeContribution struct {
	Node        int64   `json:"node"`
	Display     string  `json:"display"`
	Sensitivity float64 `json:"sensitivity"`
	Flow        float64 `json:"flow"`
}

// ExplainResponse is the /v1/explain JSON payload: the subgraph export
// shape plus the shared envelope additions. The whole body obeys
// Budget: the embedded arcs are the top-Budget arcs by adjusted flow,
// the embedded nodes the target plus those arcs' endpoints, and
// Contributions the top-Budget arcs by sensitivity. Everything else —
// TotalArcs and TotalNodes, which make clipping detectable, the scores,
// converged, iterations — describes the whole explaining subgraph.
type ExplainResponse struct {
	storage.SubgraphJSON
	Node          int64          `json:"node"`
	Score         float64        `json:"score"`
	Mode          string         `json:"mode"`
	Budget        int            `json:"budget"`
	TotalArcs     int            `json:"totalArcs"`
	TotalNodes    int            `json:"totalNodes"`
	Generation    uint64         `json:"generation"`
	RatesVersion  uint64         `json:"ratesVersion"`
	Contributions []Contribution `json:"contributions"`
}

// AuditResponse is the /v1/audit payload: the same envelope, with the
// per-node aggregation and the pre-truncation totals. TotalArcs and
// TotalNodes count the whole explaining subgraph, as ExplainResponse's
// do for the same request, so a clipped ranking is detectable
// (len(Contributions) < TotalArcs).
// At a pinned (generation, ratesVersion) the body is byte-identical
// across repeated requests — the determinism contract the audit tests
// pin at both the server and the router layer.
type AuditResponse struct {
	Node          int64              `json:"node"`
	Query         string             `json:"query"`
	Score         float64            `json:"score"`
	Mode          string             `json:"mode"`
	Budget        int                `json:"budget"`
	TotalArcs     int                `json:"totalArcs"`
	TotalNodes    int                `json:"totalNodes"`
	Converged     bool               `json:"converged"`
	Iterations    int                `json:"iterations"`
	Generation    uint64             `json:"generation"`
	RatesVersion  uint64             `json:"ratesVersion"`
	Contributions []Contribution     `json:"contributions"`
	Nodes         []NodeContribution `json:"nodes"`
}

// ProfileUpdateRequest is the PUT/POST /v1/profile/{id} body: replace
// the profile's declared interests. Mixture weights are non-negative
// topic weights over the corpus's term panel (terms outside it are kept
// in the record and simply carry no weight while they stay outside);
// Beta is the personalization blend factor in [0,1) (0 = the server
// default). The revision and the trained stamps are the server's: an
// update bumps the one and keeps the others.
type ProfileUpdateRequest struct {
	Mixture map[string]float64 `json:"mixture"`
	Beta    float64            `json:"beta,omitempty"`
}

// ProfileResponse is the GET /v1/profile/{id} payload (and the 200
// payload of PUT/POST, reporting the just-stored state). Rev increments
// on every mutation — API update or feedback training — and doubles as
// the optimistic token that invalidates the profile's cached answers.
type ProfileResponse struct {
	ID      string             `json:"id"`
	Mixture map[string]float64 `json:"mixture"`
	Beta    float64            `json:"beta"`
	Rev     uint64             `json:"rev"`
	// TrainedGeneration/TrainedRatesVersion record the engine state the
	// last training round ran against (diagnostics).
	TrainedGeneration   uint64 `json:"trainedGeneration,omitempty"`
	TrainedRatesVersion uint64 `json:"trainedRatesVersion,omitempty"`
}

// HealthResponse is the /v1/healthz payload: enough for an operator to
// see WHAT a replica is serving — dataset identity and size, the
// currently published rates version. CacheEnabled is always true (kept
// for wire compatibility).
type HealthResponse struct {
	Status        string  `json:"status"`
	Name          string  `json:"name"`
	Nodes         int     `json:"nodes"`
	Edges         int     `json:"edges"`
	RatesVersion  uint64  `json:"ratesVersion"`
	Generation    uint64  `json:"generation"`
	CacheEnabled  bool    `json:"cacheEnabled"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// RatesResponse is the GET /v1/rates payload (and the 200 payload of
// POST /v1/rates, reporting the just-published state).
type RatesResponse struct {
	Rates   string    `json:"rates"`
	Vector  []float64 `json:"vector"`
	Version uint64    `json:"version"`
}

// RatesPublishRequest is the POST /v1/rates body: publish an
// already-trained rate vector (indexed by TransferTypeID, exactly as
// GET /v1/rates reports it) through the engine's optimistic CAS. This
// is the fleet-propagation primitive of the scale-out tier: after one
// replica reformulates, the router replays the resulting vector onto
// every other replica so the whole fleet advances through the same
// version sequence. IfVersion, when non-zero, asserts the replica's
// current rates version (the CAS token; zero means "whatever is
// current"); IfGeneration, when non-zero, additionally asserts the
// corpus generation, so a vector trained on one generation is never
// published onto another.
type RatesPublishRequest struct {
	Vector       []float64 `json:"vector"`
	IfVersion    uint64    `json:"ifVersion,omitempty"`
	IfGeneration uint64    `json:"ifGeneration,omitempty"`
}

// StatsResponse is the /v1/stats payload. The counters are backed by
// the observability subsystem — the cache block reads the
// SAME atomic counters the /metrics afq_cache_* families read, and the
// http / kernel blocks read the registry's own metric objects — so
// /stats and /metrics can never drift.
type StatsResponse struct {
	CacheEnabled bool   `json:"cacheEnabled"`
	RatesVersion uint64 `json:"ratesVersion"`
	// Generation is the currently served corpus generation; CorpusSwaps
	// counts successful /v1/corpus/swap publications since start.
	Generation    uint64               `json:"generation"`
	CorpusSwaps   int64                `json:"corpusSwaps"`
	UptimeSeconds float64              `json:"uptimeSeconds"`
	HTTP          HTTPStats            `json:"http"`
	Kernel        KernelStats          `json:"kernel"`
	Explain       ExplainStats         `json:"explain"`
	Cache         *cache.StatsSnapshot `json:"cache,omitempty"`
	// Profile is the personalization tier's counters (present only when
	// the server was built WithProfiles); it reads the SAME atomics the
	// afq_profile_* metric families read.
	Profile *profile.Stats `json:"profile,omitempty"`
}

// HTTPStats summarizes the middleware's request counters, keyed
// "handler code" (e.g. "/v1/query 200") exactly as /metrics labels them.
type HTTPStats struct {
	RequestsTotal int64            `json:"requestsTotal"`
	ByHandler     map[string]int64 `json:"byHandler,omitempty"`
	SlowRequests  int64            `json:"slowRequests"`
}

// KernelStats summarizes the kernel-side families.
type KernelStats struct {
	Solves          int64 `json:"solves"`
	WarmSolves      int64 `json:"warmSolves"`
	IterationsTotal int64 `json:"iterationsTotal"`
	// PlanBuilds counts coefficient plans built, by direction, and
	// PlanBuildSeconds sums their build time: the twins of
	// afq_kernel_plan_builds_total and afq_kernel_plan_build_seconds.
	PlanBuilds       map[string]int64 `json:"planBuilds"`
	PlanBuildSeconds float64          `json:"planBuildSeconds"`
}

// ExplainStats mirrors the afq_explain_* families: completed explains,
// JSON bodies the budget clipped, and the summed arc count of the
// explained subgraphs (SubgraphArcs/Total is the mean subgraph size).
type ExplainStats struct {
	Total        int64 `json:"total"`
	Truncated    int64 `json:"truncated"`
	SubgraphArcs int64 `json:"subgraphArcs"`
}

// ---- the one JSON writer and the one error encoder, both tiers ----

// jsonBufs pools the buffers WriteJSON encodes into.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteJSON is the single JSON response writer of the server and the
// router: every JSON body either tier produces goes through it, so a
// body the router reassembles is byte-identical to a replica's. The
// wire form is compact with one trailing newline (`| jq .` is the
// pretty-printer). It encodes first and commits the status only once
// there are bytes to send, so a value encoding/json rejects (a NaN or
// ±Inf score) is a 500 internal envelope, not a 200 with a torn body.
// The envelope's request ID is read back off the response header the
// middleware already set — the ID this very response carries.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		// Three strings: this one cannot fail to encode.
		_ = json.NewEncoder(buf).Encode(ErrorEnvelope{Error: ErrorInfo{
			Code:      CodeInternal,
			Message:   "encoding response: " + err.Error(),
			RequestID: w.Header().Get(obs.RequestIDHeader),
		}})
	}
	writeBody(w, code, buf.Bytes())
}

// writeBody sends an already-encoded JSON body: Content-Type and
// Content-Length BEFORE the status line (headers set after WriteHeader
// are silently dropped), then one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// Fail is the one encoder of a v1 error, on both tiers: e's header,
// then e.Status with the envelope e's fields select —
// SwapConflictEnvelope when Generation is set, ConflictEnvelope when
// Version is, ErrorEnvelope otherwise. An e without a request ID (one
// this tier raised) takes r's; a replica's error decoded by the router
// keeps the replica's, so the router answers with the replica's
// envelope unchanged.
func Fail(w http.ResponseWriter, r *http.Request, e *APIError) {
	h := w.Header()
	if e.Allow != "" {
		h.Set("Allow", e.Allow)
	}
	if e.RetryAfter != "" {
		h.Set("Retry-After", e.RetryAfter)
	}
	info := ErrorInfo{Code: e.Code, Message: e.Message, RequestID: e.RequestID}
	if info.RequestID == "" {
		info.RequestID = obs.RequestIDFrom(r.Context())
	}
	var v any = ErrorEnvelope{Error: info}
	switch {
	case e.Generation != 0:
		v = SwapConflictEnvelope{Error: info, Generation: e.Generation}
	case e.Version != 0:
		v = ConflictEnvelope{Error: info, Version: e.Version}
	}
	WriteJSON(w, e.Status, v)
}

// ---- /v1/query/batch ----

// maxBatchBody bounds the request body (1 MiB is ~3 orders of magnitude
// above any legitimate 64-item batch).
const maxBatchBody = 1 << 20

// batchEndpoint is /v1/query/batch: N queries answered with at most one
// Solve per ranking direction, all under the one pin
// (cache.QueryBatchModePinnedCtx: result cache → term-vector cache →
// one solve of the remaining misses). Each answer is identical to what
// the corresponding single /v1/query would return.
var batchEndpoint = endpoint{pattern: "/v1/query/batch", guarded: true,
	parse: (*Server).parseBatch, run: (*Server).runBatch}

// parseBatch validates EVERY item before any kernel work: a batch either
// runs whole or is rejected whole, and the 400 names the offending index.
func (s *Server) parseBatch(rq *request, r *http.Request) (string, error) {
	if r.Method != http.MethodPost {
		return "", errPostRequired
	}
	body, err := readLimited(r, maxBatchBody, "body exceeds "+strconv.Itoa(maxBatchBody)+" bytes")
	if err != nil {
		return "", err
	}
	if _, rq.qs, rq.ks, rq.modes, err = DecodeBatch(body); err != nil {
		return "", badRequest(err.Error())
	}
	return fmt.Sprintf("batch=%d version=%d", len(rq.qs), rq.pin.Version()), nil
}

func (s *Server) runBatch(rq *request) (reply, error) {
	answers, err := s.cache.QueryBatchModePinnedCtx(rq.ctx, rq.pin, rq.qs, rq.ks, rq.modes)
	if err != nil {
		return reply{}, err
	}
	resp := BatchQueryResponse{
		Version:    rq.pin.Version(),
		Generation: rq.pin.Generation(),
		Answers:    make([]QueryResponse, len(answers)),
	}
	for i, ans := range answers {
		s.obs.cacheOutcome.With(ans.Source).Inc()
		resp.Answers[i] = queryResponse(rq.g, rq.qs[i], rq.modes[i], ans)
	}
	return reply{what: "answers", n: len(answers), json: resp}, nil
}

// DecodeBatch is the one reader of a /v1/query/batch body: the JSON
// envelope (1..MaxBatchQueries items), then every item through
// parseBatchItems. It returns the items as sent beside their parsed
// queries, effective ks and modes; the error's message is the 400's.
// The router calls it before fan-out, so a routed rejection carries the
// client's indices and the replicas' exact bytes.
func DecodeBatch(body []byte) (items []BatchQueryItem, qs []*ir.Query, ks []int, modes []core.Mode, err error) {
	var req BatchQueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, nil, nil, errors.New("bad JSON body: " + err.Error())
	}
	if len(req.Queries) == 0 {
		return nil, nil, nil, nil, errors.New("queries required")
	}
	if len(req.Queries) > MaxBatchQueries {
		return nil, nil, nil, nil, errors.New(
			strconv.Itoa(len(req.Queries)) + " queries exceeds the batch limit of " + strconv.Itoa(MaxBatchQueries))
	}
	qs, ks, modes, err = parseBatchItems(req.Queries)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return req.Queries, qs, ks, modes, nil
}

// parseBatchItems validates every batch item under EXACTLY /v1/query's
// parameter rules and in its order (the q/k rule, parseQK, then
// mode/budget via the uniform read contract) and
// returns the parsed queries, effective ks and modes. The first
// violation is returned as an error whose message names the offending
// index.
func parseBatchItems(items []BatchQueryItem) ([]*ir.Query, []int, []core.Mode, error) {
	qs := make([]*ir.Query, len(items))
	ks := make([]int, len(items))
	modes := make([]core.Mode, len(items))
	fail := func(i int, msg string) ([]*ir.Query, []int, []core.Mode, error) {
		return nil, nil, nil, errors.New("queries[" + strconv.Itoa(i) + "]: " + msg)
	}
	for i, it := range items {
		q, k, err := parseQK(it.Q, it.K, "q required")
		if err != nil {
			return fail(i, err.Error())
		}
		m, err := core.ParseMode(it.Mode)
		if err == nil {
			err = CheckBudget(it.Budget)
		}
		if err != nil {
			return fail(i, err.Error())
		}
		qs[i], ks[i], modes[i] = q, k, m
	}
	return qs, ks, modes, nil
}

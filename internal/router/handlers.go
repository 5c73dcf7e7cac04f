// handlers.go is the router's HTTP surface: the SAME /v1 routes a
// single replica serves (so clients cannot tell a fleet from one
// node), plus /v1/router/healthz for the fleet view and /metrics for
// the afq_router_* families.
//
// Read traffic is forwarded RAW — the replica's bytes (status, JSON
// body, error envelopes) pass through untouched, so a routed answer is
// byte-identical to asking that replica directly. /v1/query/batch is
// the one route the router reassembles: sub-batches decode into the
// shared DTOs and re-encode through the replicas' own writer
// (server.WriteJSON), which round-trips float64 scores exactly — the
// merged body is byte-identical to a single replica's answer at the same
// (generation, ratesVersion). Every error, the router's own and a
// replica's it decoded, goes out through the replicas' one encoder,
// server.Fail.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"authorityflow/internal/obs"
	"authorityflow/internal/server"
)

// Version-assertion request headers: a client that has observed fleet
// state (a query answer's generation/version, a reformulation's new
// version) can assert it here, and the router will only use replicas
// at or above it — read-your-writes across the fleet.
const (
	HeaderMinGeneration   = "X-Afq-Min-Generation"
	HeaderMinRatesVersion = "X-Afq-Min-Rates-Version"
)

// HeaderServedBy is the response header naming the replica that
// produced a proxied answer. Power-iteration solves warm-start from
// each replica's own solve history, so same-version answers from
// DIFFERENT replicas can differ in the last float bits (well inside
// the convergence threshold); this header makes the byte-identity
// guarantee checkable — the routed body is exactly what the named
// replica serves directly.
const HeaderServedBy = "X-Afq-Router-Replica"

// maxProxyBody bounds any request body the router buffers for
// forwarding (matches the replicas' own 1 MiB batch/body cap).
const maxProxyBody = 1 << 20

// ReplicaStatus is one replica's row in the /v1/router/healthz fleet
// view.
type ReplicaStatus struct {
	URL          string `json:"url"`
	Healthy      bool   `json:"healthy"`
	Generation   uint64 `json:"generation"`
	RatesVersion uint64 `json:"ratesVersion"`
	LastError    string `json:"lastError,omitempty"`
	LastCheckUTC string `json:"lastCheckUtc,omitempty"`
}

// RouterHealthResponse is the /v1/router/healthz payload: the fleet
// view. Status is "ok" while at least one replica is healthy.
type RouterHealthResponse struct {
	Status            string          `json:"status"`
	ReplicasHealthy   int             `json:"replicasHealthy"`
	ReplicasTotal     int             `json:"replicasTotal"`
	FloorGeneration   uint64          `json:"floorGeneration"`
	FloorRatesVersion uint64          `json:"floorRatesVersion"`
	Replicas          []ReplicaStatus `json:"replicas"`
}

// Handler returns the router's HTTP handler. Every route runs under
// the afq_router_* observability middleware (request IDs, traces,
// latency families).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.Handle(route, rt.robs.mw.Wrap(route, h))
	}
	handle("/v1/query", rt.handleSingle)
	handle("/v1/explain", rt.handleSingle)
	handle("/v1/audit", rt.handleSingle)
	handle("/v1/query/batch", rt.handleBatch)
	handle("/v1/reformulate", rt.handleReformulate)
	handle("/v1/profile/", rt.handleProfile)
	handle("/v1/corpus/swap", rt.handleSwap)
	handle("/v1/rates", rt.handleRatesRoute)
	handle("/v1/healthz", rt.handleReadProxy)
	handle("/v1/stats", rt.handleReadProxy)
	handle("/v1/router/healthz", rt.handleRouterHealth)
	mux.Handle("/metrics", rt.robs.reg.Handler())
	return mux
}

// ---- errors: *server.APIError values, written by server.Fail ----
//
// A router-raised error is an *server.APIError like a replica's, and a
// replica's error the router decoded (a sub-batch's, a swap's) goes
// back out through server.Fail unchanged: the replica's status,
// envelope, request ID, winning version or generation, and its Allow or
// Retry-After header.

// errPostRequired is the 405 of a route that only takes POST, spelled as
// the replicas spell it.
var errPostRequired = &server.APIError{Status: http.StatusMethodNotAllowed, Code: server.CodeInvalidArgument,
	Message: "POST required", Allow: http.MethodPost}

// badRequest is a router-raised invalid_argument 400.
func badRequest(msg string) *server.APIError {
	return &server.APIError{Status: http.StatusBadRequest, Code: server.CodeInvalidArgument, Message: msg}
}

// badGateway is the 502 of a replica that failed without an answer.
func badGateway(msg string) *server.APIError {
	return &server.APIError{Status: http.StatusBadGateway, Code: server.CodeInternal, Message: msg}
}

// hopByHop are the RFC 9110 connection-scoped headers a proxy must not
// forward in either direction.
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade", "Content-Length", "Host",
}

// forwardHeaders copies h minus the hop-by-hop set.
func forwardHeaders(h http.Header) http.Header {
	out := make(http.Header, len(h))
	for k, vs := range h {
		out[k] = append([]string(nil), vs...)
	}
	for _, k := range hopByHop {
		out.Del(k)
	}
	return out
}

// readBody buffers a request body up to maxProxyBody so it can be
// replayed across failover attempts. ok=false means the 400 was
// already written.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	if r.Body == nil {
		return nil, true
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
	if err != nil {
		server.Fail(w, r, badRequest("reading body: "+err.Error()))
		return nil, false
	}
	if len(body) > maxProxyBody {
		server.Fail(w, r, badRequest("body exceeds "+strconv.Itoa(maxProxyBody)+" bytes"))
		return nil, false
	}
	if len(body) == 0 {
		return nil, true
	}
	return body, true
}

// effectiveFloor combines the router's coordinated floor with the
// client's asserted minimums from the version headers. Client
// assertions raise only THIS request's floor, never the fleet's — an
// arbitrary header must not be able to mark the whole fleet stale.
func (rt *Router) effectiveFloor(w http.ResponseWriter, r *http.Request) (gen, rv uint64, ok bool) {
	gen, rv = rt.Floor()
	for _, h := range []struct {
		name string
		dst  *uint64
	}{{HeaderMinGeneration, &gen}, {HeaderMinRatesVersion, &rv}} {
		raw := r.Header.Get(h.name)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			server.Fail(w, r, badRequest(h.name+" must be an unsigned integer"))
			return 0, 0, false
		}
		if v > *h.dst {
			*h.dst = v
		}
	}
	return gen, rv, true
}

// writeNoReplica renders the two terminal routing failures: every live
// replica below the floor is the fleet-level version conflict (the
// state the client demands exists but has not propagated — retryable,
// like any lost CAS race); no live replica at all is a shed.
func (rt *Router) writeNoReplica(w http.ResponseWriter, r *http.Request, sawStale bool) {
	if sawStale {
		server.Fail(w, r, &server.APIError{Status: http.StatusConflict, Code: server.CodeVersionConflict,
			Message: "no healthy replica has reached the requested (generation, ratesVersion) floor; retry"})
		return
	}
	server.Fail(w, r, &server.APIError{Status: http.StatusServiceUnavailable, Code: server.CodeShed,
		Message: "no healthy replica", RetryAfter: "1"})
}

// propagationContext builds the context for fleet-internal write
// propagation. It is detached from the inbound request: once a write
// has landed anywhere, a departing client must not be able to abort
// the propagation halfway and split the fleet.
func (rt *Router) propagationContext() (context.Context, context.CancelFunc) {
	budget := 2 * time.Minute
	if rt.timeout > 0 {
		budget = 4 * rt.timeout
	}
	return context.WithTimeout(context.Background(), budget)
}

// ---- the one way to a replica: exchange ----

// The re-send rule every exchange names at its call site. A read or a
// sub-batch may be sent a second time after a transport failure (an
// error where no HTTP response arrived); a request that changes replica
// state is sent once, because a transport failure can mean the replica
// applied it and only the reply was lost.
const (
	mayResend = true
	sendOnce  = false
)

// exchange is the router's one way to a replica: every request it sends
// one — proxied, fanned out, probed or published — goes through here to
// the replica client's executor and comes back verbatim. On a transport
// failure rp is marked down unless ctx itself is done (the client left,
// not the replica); the error comes back for the caller to phrase.
func (rt *Router) exchange(ctx context.Context, rp *replica, method, pathAndQuery string, header http.Header, body []byte, resend bool) (*server.RawResponse, error) {
	resp, err := rp.client.Do(ctx, method, pathAndQuery, header, body, resend)
	if err != nil && ctx.Err() == nil {
		rp.setDown(err)
	}
	return resp, err
}

// call is exchange over the v1 DTOs the router itself speaks: in goes
// out as the JSON body (nil sends none) and the answer decodes into out,
// or comes back as the replica's *server.APIError.
func (rt *Router) call(ctx context.Context, rp *replica, method, path string, in, out any, resend bool) error {
	var hdr http.Header
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		hdr, body = http.Header{"Content-Type": {"application/json"}}, b
	}
	resp, err := rt.exchange(ctx, rp, method, path, hdr, body, resend)
	if err != nil {
		return err
	}
	return resp.Decode(out)
}

// ---- walk, forward, reply ----

// walk returns the first replica of order that is live and at or above
// the floor, with the replicas after it (where a failover resumes); nil
// when order holds none. behind reports that a live replica was passed
// over for being below the floor, and every such skip is counted. order
// is a key's rendezvous rank, or fleet order for unkeyed requests.
func (rt *Router) walk(order []*replica, floorGen, floorRV uint64) (hit *replica, rest []*replica, behind bool) {
	for i, rp := range order {
		if !rp.up.Load() {
			continue
		}
		if eligible(rp, floorGen, floorRV) {
			return rp, order[i+1:], behind
		}
		rt.robs.staleSkips.Inc()
		behind = true
	}
	return nil, nil, behind
}

// forward sends the inbound request, with its buffered body and its
// headers minus the hop-by-hop set, to rp through exchange.
func (rt *Router) forward(r *http.Request, rp *replica, key string, body []byte, resend bool) (*server.RawResponse, error) {
	obs.TraceFrom(r.Context()).Eventf("route", "replica=%s key=%q", rp.url, key)
	return rt.exchange(r.Context(), rp, r.Method, r.URL.RequestURI(), forwardHeaders(r.Header), body, resend)
}

// reply hands rp's raw answer to the client untouched, naming rp in
// HeaderServedBy, after harvesting what the answer proves about rp.
func (rt *Router) reply(w http.ResponseWriter, r *http.Request, rp *replica, resp *server.RawResponse) {
	rt.observeAnswer(rp, r.URL.Path, resp)
	rt.robs.routed.With(rp.url).Inc()
	hdr := w.Header()
	hdr.Set(HeaderServedBy, rp.url)
	for k, vs := range forwardHeaders(resp.Header) {
		hdr[k] = vs
	}
	if len(resp.Body) > 0 { // the whole body is in hand: no chunking (and no length on a 204)
		hdr.Set("Content-Length", strconv.Itoa(len(resp.Body)))
	}
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}

// ---- /v1/query, /v1/explain and /v1/audit ----

// handleSingle proxies one request to the rendezvous owner of its
// canonical term set AND ranking mode (hub vectors cache independently
// of authority ones, so the two directions of a term set may own
// different replicas), failing over down the rendezvous order on
// transport errors and 5xx answers. mode and budget are validated
// through the replicas' own shared table (server.ValidateReadParams) —
// same invalid_argument bytes, no proxy hop spent — and then forwarded
// byte-faithfully; the replica's response is forwarded byte-identically
// and the router adds nothing on success.
func (rt *Router) handleSingle(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query() // parsed once
	if pid := v.Get("profile"); pid != "" {
		// Personalized traffic routes by PROFILE ID to the one replica
		// holding the record — owner-only, no failover (profile.go).
		rt.dispatchOwner(w, r, pid, true, mayResend)
		return
	}
	rp0, err := server.ValidateReadParams(v)
	if err != nil {
		server.Fail(w, r, badRequest(err.Error()))
		return
	}
	floorGen, floorRV, ok := rt.effectiveFloor(w, r)
	if !ok {
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	tr := obs.TraceFrom(r.Context())
	key := routeKeyMode(v.Get("q"), rp0.Mode)
	order := rt.rendezvousRank(key)

	var last *server.RawResponse
	var lastFrom *replica
	sawStale := false
	for attempts := 0; ; attempts++ {
		rp, rest, behind := rt.walk(order, floorGen, floorRV)
		order, sawStale = rest, sawStale || behind
		if rp == nil {
			break
		}
		if attempts > 0 {
			rt.robs.failovers.Inc()
		}
		resp, err := rt.forward(r, rp, key, body, mayResend)
		switch {
		case err == nil && rt.staleAnswer(rp, r.URL.Path, resp, floorGen, floorRV):
			// Never forwarded: the walk goes on past a replica found behind.
			sawStale = true
			tr.Eventf("stale", "replica=%s", rp.url)
		case err == nil && resp.Status < 500:
			rt.reply(w, r, rp, resp)
			return
		case err == nil:
			// A straggling or overloaded replica (shed, deadline, crash
			// handler) — another replica may well answer; keep this
			// response to forward only if every alternative also fails.
			last, lastFrom = resp, rp
			tr.Eventf("failover", "replica=%s status=%d", rp.url, resp.Status)
		case r.Context().Err() != nil:
			return // client gone; nothing to answer
		default:
			tr.Eventf("failover", "replica=%s err=%v", rp.url, err)
		}
	}
	if last != nil {
		rt.reply(w, r, lastFrom, last)
		return
	}
	rt.writeNoReplica(w, r, sawStale)
}

// answerState reads the (generation, ratesVersion) a successful
// /v1/query answer says it was served at, from server.HeaderGeneration
// and server.HeaderRatesVersion. The body is never parsed: an answer
// without both headers says nothing (ok=false), and the health poll
// still observes that replica.
func answerState(path string, resp *server.RawResponse) (gen, rv uint64, ok bool) {
	if resp.Status != http.StatusOK || path != "/v1/query" {
		return 0, 0, false
	}
	gen, gerr := strconv.ParseUint(resp.Header.Get(server.HeaderGeneration), 10, 64)
	rv, verr := strconv.ParseUint(resp.Header.Get(server.HeaderRatesVersion), 10, 64)
	return gen, rv, gerr == nil && verr == nil && gen > 0
}

// observeAnswer harvests fleet knowledge from a forwarded answer: the
// state it was served at, which also raises the router's floor if a
// write happened behind its back.
func (rt *Router) observeAnswer(rp *replica, path string, resp *server.RawResponse) {
	if gen, rv, ok := answerState(path, resp); ok {
		rp.observe(gen, rv)
		rt.raiseFloor(gen, rv)
	}
}

// staleAnswer reports whether a successful /v1/query answer from rp was
// served below the walk's floor (servedBelow).
func (rt *Router) staleAnswer(rp *replica, path string, resp *server.RawResponse, floorGen, floorRV uint64) bool {
	gen, rv, ok := answerState(path, resp)
	return ok && rt.servedBelow(rp, gen, rv, floorGen, floorRV)
}

// servedBelow reports whether rp answered at (gen, rv), below the
// walk's floor: a replica restarted or rolled back behind the router's
// back still looks current until the next probe. Such an answer is not
// forwarded. rp's known state drops to what it served, so walks pass it
// over until resync catches it up, and the skip is counted.
func (rt *Router) servedBelow(rp *replica, gen, rv, floorGen, floorRV uint64) bool {
	if gen >= floorGen && rv >= floorRV {
		return false
	}
	rp.replace(gen, rv)
	rt.robs.staleSkips.Inc()
	return true
}

// ---- /v1/query/batch ----

// batchGroup is one replica's share of a batch: the original item
// indices it owns, in request order.
type batchGroup struct {
	rp   *replica
	idxs []int
	resp server.BatchQueryResponse
	err  error
}

// handleBatch validates the panel under exactly the replicas' rules,
// splits it across rendezvous owners, fans the sub-batches out
// concurrently and merges the answers back into request order. When a
// concurrent write lands mid-fan-out and the groups answer at
// different versions, the router raises its floor, resyncs and retries
// the whole panel — every answer in the merged response comes from ONE
// (generation, ratesVersion). A group answered below the floor is never
// merged: the panel is re-planned around the replica found behind.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.Fail(w, r, errPostRequired)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	// Validate the panel BEFORE splitting, through the replicas' own
	// reader — a replica-side 400 would name sub-batch indices, not the
	// client's.
	items, qs, _, modes, err := server.DecodeBatch(body)
	if err != nil {
		server.Fail(w, r, badRequest(err.Error()))
		return
	}
	keys := make([]string, len(qs))
	for i, q := range qs {
		keys[i] = termsKeyMode(q.Terms(), modes[i])
	}
	floorGen, floorRV, ok := rt.effectiveFloor(w, r)
	if !ok {
		return
	}

	tr := obs.TraceFrom(r.Context())
	sawStale, exhausted := false, true
	for attempt := 0; attempt < 3; attempt++ {
		groups, stale, planned := rt.planBatch(keys, floorGen, floorRV)
		sawStale = sawStale || stale
		if !planned {
			exhausted = false
			break
		}
		tr.Eventf("fanout", "attempt=%d groups=%d", attempt, len(groups))

		var wg sync.WaitGroup
		for _, g := range groups {
			wg.Add(1)
			go func(g *batchGroup) {
				defer wg.Done()
				sub := server.BatchQueryRequest{Queries: make([]server.BatchQueryItem, len(g.idxs))}
				for j, idx := range g.idxs {
					sub.Queries[j] = items[idx]
				}
				g.err = rt.call(r.Context(), g.rp, http.MethodPost, "/v1/query/batch", sub, &g.resp, mayResend)
			}(g)
		}
		wg.Wait()

		retry := false
		for _, g := range groups {
			if g.err == nil {
				continue
			}
			var apiErr *server.APIError
			if errors.As(g.err, &apiErr) {
				// A real replica answer (conflict, shed, deadline):
				// forward it rather than guessing — but a replica names
				// SUB-batch item indices, so remap them onto the client's
				// original panel first.
				e := *apiErr
				e.Message = remapBatchIndices(e.Message, g.idxs)
				server.Fail(w, r, &e)
				return
			}
			if r.Context().Err() != nil {
				return
			}
			rt.robs.failovers.Inc()
			tr.Eventf("failover", "replica=%s err=%v", g.rp.url, g.err)
			retry = true
		}
		// A group answered below the floor is never merged: re-plan
		// around the replica found behind.
		for _, g := range groups {
			if g.err == nil && rt.servedBelow(g.rp, g.resp.Generation, g.resp.Version, floorGen, floorRV) {
				tr.Eventf("stale", "replica=%s", g.rp.url)
				sawStale, retry = true, true
			}
		}
		if retry {
			continue // re-plan around the downed and the behind replicas
		}

		// Version coherence: a write that landed mid-fan-out leaves
		// groups at different versions. Raise the floor to the highest
		// state any group answered at, resync the laggards, and retry the
		// whole panel against the new floor.
		maxGen, maxRV := groups[0].resp.Generation, groups[0].resp.Version
		coherent := true
		for _, g := range groups {
			g.rp.observe(g.resp.Generation, g.resp.Version)
			if g.resp.Generation != maxGen || g.resp.Version != maxRV {
				coherent = false
			}
			if g.resp.Generation > maxGen {
				maxGen = g.resp.Generation
			}
			if g.resp.Version > maxRV {
				maxRV = g.resp.Version
			}
		}
		rt.raiseFloor(maxGen, maxRV)
		if !coherent {
			rt.robs.staleSkips.Inc()
			tr.Eventf("incoherent", "attempt=%d gen=%d rv=%d", attempt, maxGen, maxRV)
			if floorGen < maxGen {
				floorGen = maxGen
			}
			if floorRV < maxRV {
				floorRV = maxRV
			}
			rt.resync(r.Context())
			sawStale = true
			continue
		}

		resp := server.BatchQueryResponse{
			Version:    maxRV,
			Generation: maxGen,
			Answers:    make([]server.QueryResponse, len(items)),
		}
		for _, g := range groups {
			for j, idx := range g.idxs {
				resp.Answers[idx] = g.resp.Answers[j]
			}
			rt.robs.routed.With(g.rp.url).Inc()
		}
		rt.robs.batchGroups.Observe(float64(len(groups)))
		server.WriteJSON(w, http.StatusOK, resp)
		return
	}
	if sawStale {
		server.Fail(w, r, &server.APIError{Status: http.StatusConflict, Code: server.CodeVersionConflict,
			Message: "fleet versions diverged across the batch fan-out; retry"})
		return
	}
	if exhausted {
		// All 3 attempts burned on mid-flight transport failures — healthy
		// replicas may well remain, so don't claim "no healthy replica".
		server.Fail(w, r, badGateway(
			"batch fan-out failed after 3 attempts; replicas kept failing mid-flight — check /v1/router/healthz and retry"))
		return
	}
	rt.writeNoReplica(w, r, false)
}

// remapBatchIndices rewrites "queries[N]" item references in a replica
// sub-batch error message from sub-batch positions to the client's
// original panel indices (idxs maps sub position → original index).
// Unparseable or out-of-range references pass through untouched.
func remapBatchIndices(msg string, idxs []int) string {
	const marker = "queries["
	var b strings.Builder
	for {
		i := strings.Index(msg, marker)
		if i < 0 {
			b.WriteString(msg)
			return b.String()
		}
		b.WriteString(msg[:i+len(marker)])
		msg = msg[i+len(marker):]
		j := strings.IndexByte(msg, ']')
		if j < 0 {
			b.WriteString(msg)
			return b.String()
		}
		if n, err := strconv.Atoi(msg[:j]); err == nil && n >= 0 && n < len(idxs) {
			b.WriteString(strconv.Itoa(idxs[n]))
		} else {
			b.WriteString(msg[:j])
		}
		msg = msg[j:]
	}
}

// planBatch assigns every item to the first eligible replica in its
// key's rendezvous order. planned=false means at least one item has no
// eligible replica (stale reports whether a live-but-behind replica
// was the reason).
func (rt *Router) planBatch(keys []string, floorGen, floorRV uint64) (groups []*batchGroup, stale, planned bool) {
	byReplica := make(map[*replica]*batchGroup)
	for i, key := range keys {
		owner, _, behind := rt.walk(rt.rendezvousRank(key), floorGen, floorRV)
		stale = stale || behind
		if owner == nil {
			return nil, stale, false
		}
		g := byReplica[owner]
		if g == nil {
			g = &batchGroup{rp: owner}
			byReplica[owner] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
	}
	return groups, stale, true
}

// ---- the fleet writes: /v1/reformulate and POST /v1/rates ----

// handleReformulate sends a profile-scoped reformulation to the
// profile's owner and a global one down the write leg.
func (rt *Router) handleReformulate(w http.ResponseWriter, r *http.Request) {
	if pid := r.URL.Query().Get("profile"); pid != "" {
		// Profile-scoped training mutates only the owner's local record —
		// no global version advance, so no writeMu and no propagation.
		rt.dispatchOwner(w, r, pid, true, sendOnce)
		return
	}
	rt.handleWrite(w, r)
}

// handleWrite is the one leg of a fleet write, a global reformulation
// or a POST /v1/rates publish. It walks to the first eligible replica
// (the rendezvous rank of the query's term set for a reformulation,
// fleet order for a publish), forwards the request once and answers
// with that replica's own bytes. Before answering it reads the
// replica's version off its reply, a 200's new version or a 409's
// winning one (someone published past the replica behind the router's
// back), both spelled "version", and raises the floor to it; after a
// 200 it replays the new rates onto every other live replica with CAS
// tokens, so the fleet advances through the same version sequence in
// lockstep, and after a 409 the next resync converges on the winner.
// There is NO failover after dispatch and no re-send (sendOnce): a lost
// reply leaves the replica's state unknown, and re-sending could apply
// the write twice.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	rt.writeMu.Lock()
	defer rt.writeMu.Unlock()

	floorGen, floorRV, ok := rt.effectiveFloor(w, r)
	if !ok {
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	key, order, what := "", rt.replicas, "publish"
	if r.URL.Path == "/v1/reformulate" {
		key, what = routeKey(r.URL.Query().Get("q")), "reformulation"
		order = rt.rendezvousRank(key)
	}
	owner, _, behind := rt.walk(order, floorGen, floorRV)
	if owner == nil {
		rt.writeNoReplica(w, r, behind)
		return
	}
	resp, err := rt.forward(r, owner, key, body, sendOnce)
	if err != nil {
		if r.Context().Err() == nil {
			server.Fail(w, r, badGateway(
				"replica failed mid-"+what+"; its state is unknown — check /v1/router/healthz and retry"))
		}
		return
	}
	var answer struct {
		Version uint64 `json:"version"`
	}
	if (resp.Status == http.StatusOK || resp.Status == http.StatusConflict) &&
		json.Unmarshal(resp.Body, &answer) == nil && answer.Version > 0 {
		owner.observe(owner.gen.Load(), answer.Version)
		rt.raiseFloor(owner.gen.Load(), answer.Version)
		if resp.Status == http.StatusOK {
			rt.propagateRates(owner, obs.TraceFrom(r.Context()))
		}
	}
	rt.reply(w, r, owner, resp)
}

// propagateRates reads the owner's just-published rates and replays
// them onto every other live replica (catch-up publishing until each
// reaches the owner's version). Callers hold writeMu.
func (rt *Router) propagateRates(owner *replica, tr *obs.Trace) {
	ctx, cancel := rt.propagationContext()
	defer cancel()
	var others []*replica
	for _, rp := range rt.replicas {
		if rp != owner && rp.up.Load() {
			others = append(others, rp)
		}
	}
	gen := owner.gen.Load()
	version, err := rt.spreadRatesLocked(ctx, owner, gen, others)
	if err != nil {
		// Propagation is best-effort here: the health loop's resync
		// finishes the job once the owner answers again.
		tr.Eventf("propagate", "rates read failed: %v", err)
		return
	}
	tr.Eventf("propagate", "gen=%d version=%d", gen, version)
}

// ---- /v1/corpus/swap ----

// handleSwap fans the snapshot swap out to every live replica, sent
// once to each: a replica whose reply was lost may have swapped, so it
// is marked down and never re-sent the swap (the next probe reads the
// generation it is at). All replicas swapping is the happy path; a
// partial result still answers 200 (the floor rises to the new
// generation, so the failed replicas are excluded from serving until
// realigned) and the divergence is visible in /v1/router/healthz.
func (rt *Router) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.Fail(w, r, errPostRequired)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req server.CorpusSwapRequest
	if err := json.Unmarshal(body, &req); err != nil {
		server.Fail(w, r, badRequest("bad JSON body: "+err.Error()))
		return
	}

	rt.writeMu.Lock()
	defer rt.writeMu.Unlock()
	ctx, cancel := rt.propagationContext()
	defer cancel()
	tr := obs.TraceFrom(r.Context())

	type swapResult struct {
		rp   *replica
		resp server.CorpusSwapResponse
		err  error
	}
	var live []*replica
	for _, rp := range rt.replicas {
		if rp.up.Load() {
			live = append(live, rp)
		}
	}
	if len(live) == 0 {
		rt.writeNoReplica(w, r, false)
		return
	}
	results := make([]swapResult, len(live))
	var wg sync.WaitGroup
	for i, rp := range live {
		wg.Add(1)
		go func(i int, rp *replica) {
			defer wg.Done()
			results[i].rp = rp
			results[i].err = rt.call(ctx, rp, http.MethodPost, "/v1/corpus/swap", req, &results[i].resp, sendOnce)
		}(i, rp)
	}
	wg.Wait()

	var first *server.CorpusSwapResponse
	var firstErr *server.APIError
	for i := range results {
		res := &results[i]
		if res.err == nil {
			rt.robs.swaps.Inc()
			res.rp.observe(res.resp.Generation, res.resp.RatesVersion)
			tr.Eventf("swap", "replica=%s gen=%d", res.rp.url, res.resp.Generation)
			if first == nil {
				first = &res.resp
			}
			continue
		}
		var apiErr *server.APIError
		if errors.As(res.err, &apiErr) {
			res.rp.noteErr("swap rejected: " + apiErr.Error())
			// A conflict means the replica is on a different generation
			// than assumed — refresh its view so the floor gating is
			// accurate.
			var h server.HealthResponse
			if rt.call(ctx, res.rp, http.MethodGet, "/v1/healthz", nil, &h, mayResend) == nil {
				res.rp.observe(h.Generation, h.RatesVersion)
			}
			if firstErr == nil {
				firstErr = apiErr
			}
			continue
		}
		tr.Eventf("swap", "replica=%s err=%v", res.rp.url, res.err)
	}
	if first == nil {
		if firstErr != nil {
			server.Fail(w, r, firstErr)
			return
		}
		server.Fail(w, r, badGateway("no replica completed the swap; check /v1/router/healthz"))
		return
	}
	// The new generation is the fleet's floor now: replicas that missed
	// the swap are ineligible until an operator realigns them.
	rt.raiseFloor(first.Generation, first.RatesVersion)
	server.WriteJSON(w, http.StatusOK, *first)
}

// ---- /v1/rates ----

// handleRatesRoute dispatches /v1/rates by method, like the replicas
// do: GET reads (proxied to one replica), POST publishes fleet-wide
// down the write leg.
func (rt *Router) handleRatesRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		rt.handleWrite(w, r)
		return
	}
	rt.handleReadProxy(w, r)
}

// ---- reads proxied to one replica (/v1/healthz, /v1/stats, GET /v1/rates) ----

// handleReadProxy forwards a cheap read to the first eligible replica.
// /v1/healthz and /v1/stats fall back to any live replica when none is
// floor-eligible — a behind replica's healthz is still a real healthz —
// but GET /v1/rates does NOT: a client asserting a minimum version must
// get the 409 read-your-writes conflict, never a stale vector.
func (rt *Router) handleReadProxy(w http.ResponseWriter, r *http.Request) {
	floorGen, floorRV, ok := rt.effectiveFloor(w, r)
	if !ok {
		return
	}
	target, _, behind := rt.walk(rt.replicas, floorGen, floorRV)
	if target == nil && r.URL.Path != "/v1/rates" {
		target, _, _ = rt.walk(rt.replicas, 0, 0)
	}
	if target == nil {
		rt.writeNoReplica(w, r, behind)
		return
	}
	resp, err := rt.forward(r, target, "", nil, mayResend)
	if err != nil {
		if r.Context().Err() == nil {
			server.Fail(w, r, badGateway("replica unreachable: "+err.Error()))
		}
		return
	}
	rt.reply(w, r, target, resp)
}

// ---- /v1/router/healthz ----

// handleRouterHealth reports the fleet view: per-replica health and
// versions plus the coordinated floor. 200 while at least one replica
// can serve, 503 otherwise — a load balancer fronting several routers
// can health-check this.
func (rt *Router) handleRouterHealth(w http.ResponseWriter, r *http.Request) {
	resp := RouterHealthResponse{
		ReplicasTotal: len(rt.replicas),
		Replicas:      make([]ReplicaStatus, len(rt.replicas)),
	}
	for i, rp := range rt.replicas {
		resp.Replicas[i] = rp.status()
		if resp.Replicas[i].Healthy {
			resp.ReplicasHealthy++
		}
	}
	resp.FloorGeneration, resp.FloorRatesVersion = rt.Floor()
	status := http.StatusOK
	resp.Status = "ok"
	if resp.ReplicasHealthy == 0 {
		status = http.StatusServiceUnavailable
		resp.Status = "down"
	}
	server.WriteJSON(w, status, resp)
}

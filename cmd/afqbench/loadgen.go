package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authorityflow/internal/server"
)

// cacheComputed is the "cache" field of an answer the server had to run a
// solve for (cache.SourceComputed).
const cacheComputed = "computed"

// explainBudget is the budget= the session's explain step asks for.
const explainBudget = 16

// oracleEvery is the sampling period of the recompute oracle: one
// plain-query answer in this many is kept for recomputation.
const oracleEvery = 50

// client is one keep-alive connection to the system. It is used by one
// goroutine at a time.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// wireRequest is a step made concrete: what goes on the wire.
type wireRequest struct {
	Method string
	Path   string // path and query string
	Body   []byte
}

// do sends r to base and reads the whole answer. The returned body is
// only valid until the next call. dur runs from just before the
// request is written until the last body byte has been read.
func (c *client) do(base string, r wireRequest) (status int, hdr http.Header, body []byte, dur time.Duration, err error) {
	var rd io.Reader
	if r.Body != nil {
		rd = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, base+r.Path, rd)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	dur = time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, resp.Header, nil, dur, fmt.Errorf("reading body: %w", err)
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), dur, nil
}

// explainSlim is the part of an /v1/explain answer the structural
// check reads; the 20 MB of node and arc detail are skipped, not kept.
type explainSlim struct {
	Target        int64              `json:"target"`
	Score         float64            `json:"explainedScore"`
	Nodes         []struct{}         `json:"nodes"`
	Node          int64              `json:"node"`
	Contributions []contributionSlim `json:"contributions"`
}

type contributionSlim struct {
	Sensitivity float64 `json:"sensitivity"`
}

// answer is one decoded response.
type answer struct {
	Status  int
	Dur     time.Duration
	Bytes   int
	Replica string // X-Afq-Router-Replica, when a router answered
	Query   *server.QueryResponse
	Batch   *server.BatchQueryResponse
	Reform  *server.ReformulateResponse
	Audit   *server.AuditResponse
	Explain *explainSlim
}

// sessionState is what the steps of one session cycle hand to the
// steps after them.
type sessionState struct {
	feedback      []int64 // top-2 of the cycle's first query
	reformVersion uint64  // version the cycle's reformulation published
	target        int64   // top-1 of the requery
}

// publisher serialises the clients' reformulations. Every publish moves
// the rates version, and /v1/reformulate is an optimistic write: two
// clients publishing at once would make one of them lose with a 409.
// The clients are the only writers, so holding this lock across the
// request and passing the last published version as the token makes
// every reformulation win.
type publisher struct {
	mu      sync.Mutex
	version uint64
}

// env is what every phase of a run shares.
type env struct {
	wl      string
	target  string
	clients int
	pub     *publisher
	// singles maps a head term to its top-k answer as the warm-up saw
	// it through a plain query; batch answers are checked against it.
	// Written by the warm-up only, read-only afterwards.
	singles map[string][]server.Result
}

// concrete turns a step into the request to send.
func concrete(st step, ss *sessionState, version uint64) wireRequest {
	q := url.Values{}
	if st.Q != "" {
		q.Set("q", st.Q)
	}
	switch st.Kind {
	case opQuery, opRequery, opProfileQuery:
		q.Set("k", strconv.Itoa(st.K))
		if st.Mode != "" {
			q.Set("mode", st.Mode)
		}
		if st.Profile != "" {
			q.Set("profile", st.Profile)
		}
		return wireRequest{Method: http.MethodGet, Path: "/v1/query?" + q.Encode()}
	case opBatch:
		return batchRequest(st.Batch)
	case opExplain:
		q.Set("target", strconv.FormatInt(ss.target, 10))
		q.Set("budget", strconv.Itoa(explainBudget))
		return wireRequest{Method: http.MethodGet, Path: "/v1/explain?" + q.Encode()}
	case opAudit:
		q.Set("target", strconv.FormatInt(ss.target, 10))
		return wireRequest{Method: http.MethodGet, Path: "/v1/audit?" + q.Encode()}
	case opReformulate:
		ids := make([]string, len(ss.feedback))
		for i, id := range ss.feedback {
			ids[i] = strconv.FormatInt(id, 10)
		}
		q.Set("k", strconv.Itoa(st.K))
		q.Set("feedback", strings.Join(ids, ","))
		q.Set("mode", "structure")
		q.Set("version", strconv.FormatUint(version, 10))
		return wireRequest{Method: http.MethodGet, Path: "/v1/reformulate?" + q.Encode()}
	}
	panic("afqbench: unknown step kind")
}

func batchRequest(items []batchItem) wireRequest {
	req := server.BatchQueryRequest{Queries: make([]server.BatchQueryItem, len(items))}
	for i, it := range items {
		req.Queries[i] = server.BatchQueryItem{Q: it.Q, Mode: it.Mode}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return wireRequest{Method: http.MethodPost, Path: "/v1/query/batch", Body: body}
}

// decode parses body by the kind of request it answers.
func decode(kind opKind, status int, body []byte) (*answer, error) {
	a := &answer{Status: status, Bytes: len(body)}
	if status != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", status, truncate(body, 200))
	}
	var dst any
	switch kind {
	case opQuery, opRequery, opProfileQuery:
		a.Query = new(server.QueryResponse)
		dst = a.Query
	case opBatch:
		a.Batch = new(server.BatchQueryResponse)
		dst = a.Batch
	case opReformulate:
		a.Reform = new(server.ReformulateResponse)
		dst = a.Reform
	case opAudit:
		a.Audit = new(server.AuditResponse)
		dst = a.Audit
	case opExplain:
		a.Explain = new(explainSlim)
		dst = a.Explain
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return a, fmt.Errorf("undecodable body: %v", err)
	}
	return a, nil
}

func truncate(b []byte, n int) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > n {
		s = s[:n] + "…"
	}
	return s
}

// oracleSample is one plain-query answer kept for recomputation.
type oracleSample struct {
	Q          string
	Mode       string
	K          int
	Generation uint64
	Version    uint64
	Results    []server.Result
}

// tally is what one client gathers during a phase.
type tally struct {
	ops [numKinds][]sample
	// solved holds those of ops[opQuery] that a session's first query
	// contributed and the server answered by a solve (cache: computed).
	solved    []sample
	attempted int
	failed    int
	failures  []string // the first few, for the report
	replicas  map[string]int
	oracle    []oracleSample
	seen      int // plain-query answers seen, for oracle sampling
	lag       []float64
}

func (t *tally) fail(kind opKind, q string, err error) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf("%s %q: %v", kind, q, err))
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.ops {
		t.ops[k] = append(t.ops[k], o.ops[k]...)
	}
	t.solved = append(t.solved, o.solved...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
	for r, n := range o.replicas {
		if t.replicas == nil {
			t.replicas = make(map[string]int)
		}
		t.replicas[r] += n
	}
	t.oracle = append(t.oracle, o.oracle...)
	t.seen += o.seen
	t.lag = append(t.lag, o.lag...)
}

// issue sends one step, checks its answer and records it in t. at is
// the step's start as an offset into the phase; timed says whether the
// latency counts (the warm-up's do not). It returns the decoded answer
// (nil after a transport error).
func (e *env) issue(c *client, st step, ss *sessionState, t *tally, start time.Time, timed bool) *answer {
	version := uint64(0)
	if st.Kind == opReformulate {
		e.pub.mu.Lock()
		defer e.pub.mu.Unlock()
		version = e.pub.version
	}
	wr := concrete(st, ss, version)
	at := time.Since(start).Seconds()
	status, hdr, body, dur, err := c.do(e.target, wr)
	t.attempted++
	if err != nil {
		t.fail(st.Kind, st.Q, err)
		return nil
	}
	if timed {
		t.ops[st.Kind] = append(t.ops[st.Kind], sample{at: at, dur: dur.Seconds()})
	}
	a, err := decode(st.Kind, status, body)
	a.Dur = dur
	a.Replica = hdr.Get("X-Afq-Router-Replica")
	if err == nil {
		err = e.check(st, ss, a)
	}
	if err != nil {
		if st.Kind == opReformulate && status == http.StatusConflict {
			// Resynchronise the token so one lost race cannot fail
			// every reformulation after it.
			var ce server.ConflictEnvelope
			if json.Unmarshal(body, &ce) == nil && ce.Version > 0 {
				e.pub.version = ce.Version
			}
		}
		t.fail(st.Kind, st.Q, err)
		return a
	}
	switch st.Kind {
	case opQuery:
		if a.Replica != "" {
			if t.replicas == nil {
				t.replicas = make(map[string]int)
			}
			t.replicas[a.Replica]++
		}
		if e.wl != wlSessionFeedback {
			if t.seen%oracleEvery == 0 {
				t.oracle = append(t.oracle, oracleSample{
					Q: st.Q, Mode: st.Mode, K: st.K,
					Generation: a.Query.Generation, Version: a.Query.Version,
					Results: a.Query.Results,
				})
			}
			t.seen++
		}
		if ss != nil && len(a.Query.Results) >= 2 {
			ss.feedback = []int64{a.Query.Results[0].Node, a.Query.Results[1].Node}
		}
		if ss != nil && timed && a.Query.Cache == cacheComputed {
			t.solved = append(t.solved, sample{at: at, dur: dur.Seconds()})
		}
	case opReformulate:
		e.pub.version = a.Reform.Version
		ss.reformVersion = a.Reform.Version
	case opRequery:
		ss.target = a.Query.Results[0].Node
	}
	return a
}

// check is the structural oracle: what must hold of every answer
// whatever the corpus.
func (e *env) check(st step, ss *sessionState, a *answer) error {
	switch st.Kind {
	case opQuery, opRequery, opProfileQuery:
		if err := checkRanking(a.Query.Results, st.K); err != nil {
			return err
		}
		if a.Query.Generation == 0 || a.Query.Version == 0 {
			return fmt.Errorf("answer carries generation %d, version %d", a.Query.Generation, a.Query.Version)
		}
		if st.Kind == opRequery && a.Query.Version < ss.reformVersion {
			return fmt.Errorf("requery ran under version %d, older than the %d its own reformulation published",
				a.Query.Version, ss.reformVersion)
		}
		if st.Kind == opProfileQuery && a.Query.Profile != st.Profile {
			return fmt.Errorf("answer names profile %q, asked for %q", a.Query.Profile, st.Profile)
		}
	case opBatch:
		if len(a.Batch.Answers) != len(st.Batch) {
			return fmt.Errorf("%d answers to %d queries", len(a.Batch.Answers), len(st.Batch))
		}
		for i, ans := range a.Batch.Answers {
			if err := checkRanking(ans.Results, 10); err != nil {
				return fmt.Errorf("answers[%d]: %w", i, err)
			}
			if ans.Version != a.Batch.Version || ans.Generation != a.Batch.Generation {
				return fmt.Errorf("answers[%d] ran under (%d, %d), the batch under (%d, %d)",
					i, ans.Generation, ans.Version, a.Batch.Generation, a.Batch.Version)
			}
			if single, ok := e.singles[st.Batch[i].Q]; ok && st.Batch[i].Mode == "" {
				if err := sameRanking(single, ans.Results); err != nil {
					return fmt.Errorf("answers[%d] %q differs from the single-query answer: %w", i, st.Batch[i].Q, err)
				}
			}
		}
	case opReformulate:
		if err := checkRanking(a.Reform.Results, st.K); err != nil {
			return err
		}
		if a.Reform.Version <= e.pub.version {
			return fmt.Errorf("published version %d, not above the token %d", a.Reform.Version, e.pub.version)
		}
	case opExplain:
		x := a.Explain
		if x.Target != ss.target || x.Node != ss.target {
			return fmt.Errorf("explains node %d/%d, asked for %d", x.Target, x.Node, ss.target)
		}
		if len(x.Nodes) == 0 || !(x.Score > 0) {
			return fmt.Errorf("empty explanation: %d nodes, score %g", len(x.Nodes), x.Score)
		}
		if len(x.Contributions) > explainBudget {
			return fmt.Errorf("%d contributions over a budget of %d", len(x.Contributions), explainBudget)
		}
		for i := 1; i < len(x.Contributions); i++ {
			if x.Contributions[i].Sensitivity > x.Contributions[i-1].Sensitivity {
				return fmt.Errorf("contributions[%d] ranks above [%d]", i, i-1)
			}
		}
	case opAudit:
		x := a.Audit
		if x.Node != ss.target {
			return fmt.Errorf("audits node %d, asked for %d", x.Node, ss.target)
		}
		if len(x.Contributions) == 0 || len(x.Contributions) > x.Budget || x.TotalArcs < len(x.Contributions) {
			return fmt.Errorf("%d contributions, budget %d, %d arcs in all", len(x.Contributions), x.Budget, x.TotalArcs)
		}
		for i := 1; i < len(x.Contributions); i++ {
			if x.Contributions[i].Sensitivity > x.Contributions[i-1].Sensitivity {
				return fmt.Errorf("contributions[%d] ranks above [%d]", i, i-1)
			}
		}
	}
	return nil
}

// checkRanking requires exactly k results in non-increasing score
// order, each with a positive score.
func checkRanking(rs []server.Result, k int) error {
	if len(rs) != k {
		return fmt.Errorf("%d results, asked for %d", len(rs), k)
	}
	for i, r := range rs {
		if !(r.Score > 0) {
			return fmt.Errorf("results[%d] has score %g", i, r.Score)
		}
		if i > 0 && r.Score > rs[i-1].Score {
			return fmt.Errorf("results[%d] scores above results[%d]", i, i-1)
		}
	}
	return nil
}

// scoreTolerance is how far two solves of the same (query, generation,
// rates version, mode) may differ in a score.
const scoreTolerance = 1e-9

// sameRanking requires equal node ids in equal order and scores within
// scoreTolerance.
func sameRanking(want, got []server.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results against %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Node != got[i].Node {
			return fmt.Errorf("rank %d is node %d, expected %d", i, got[i].Node, want[i].Node)
		}
		if d := want[i].Score - got[i].Score; d > scoreTolerance || d < -scoreTolerance {
			return fmt.Errorf("rank %d scores %.12g, expected %.12g", i, got[i].Score, want[i].Score)
		}
	}
	return nil
}

// runCycle sends the steps of one cycle.
func (e *env) runCycle(c *client, cy cycle, t *tally, start time.Time) {
	var ss *sessionState
	if e.wl == wlSessionFeedback {
		ss = &sessionState{}
	}
	for _, st := range cy {
		a := e.issue(c, st, ss, t, start, true)
		if a == nil || a.Status != http.StatusOK {
			return // the later steps of a session need this one's answer
		}
	}
}

// runClosed drives one client per generator in a closed loop: each
// sends its next request when the previous answer has been read. No
// cycle starts after span has passed; the ones in flight finish.
func (e *env) runClosed(gens []*generator, span time.Duration) *tally {
	tallies := make([]*tally, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	for i, g := range gens {
		tallies[i] = &tally{}
		wg.Add(1)
		go func(g *generator, t *tally) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for time.Since(start) < span {
				e.runCycle(c, g.next(), t, start)
			}
		}(g, tallies[i])
	}
	wg.Wait()
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// runOpen sends the generator's requests on a fixed schedule, request i
// being due i/rate seconds after the start, over e.clients connections.
// A connection still busy when a request falls due sends it late; the
// request's latency runs from its due time either way, and how late it
// started is recorded as the generator's lag.
func (e *env) runOpen(g *generator, rate float64, span time.Duration) *tally {
	n := int(rate * span.Seconds())
	steps := make([]step, 0, n)
	for len(steps) < n {
		steps = append(steps, g.next()...)
	}
	steps = steps[:n]
	var next atomic.Int64
	tallies := make([]*tally, e.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < e.clients; w++ {
		tallies[w] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(start) - due
				before := len(t.ops[steps[i].Kind])
				e.issue(c, steps[i], nil, t, start, true)
				if ops := t.ops[steps[i].Kind]; len(ops) > before {
					// Time the request from when it was due, not
					// from when a connection was free to send it.
					ops[len(ops)-1].at = due.Seconds()
					ops[len(ops)-1].dur += lag.Seconds()
				}
				t.lag = append(t.lag, lag.Seconds())
			}
		}(tallies[w])
	}
	wg.Wait()
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// Package cache is the serving-path cache of the ObjectRank2 system:
// the layer that makes repeated and concurrent querying cheap. Its
// term vectors, kept where queries find them and refined on demand, are
// this system's form of the [BHP04] precomputation the paper names in
// Section 6.2; nothing is solved ahead of a request or kept on disk.
//
// It holds two sharded, byte-budgeted LRU caches keyed by the full
// identity of the engine state a computation ran under: the corpus
// generation AND the rates identity (core.Pinned.RatesKey, the
// fingerprint every rates snapshot carries), plus the ranking mode:
//
//   - a term-vector cache: converged per-term ObjectRank2 score vectors
//     under (generation, ratesKey, mode, term), populated on demand
//     through a singleflight group so N concurrent misses on one term
//     run exactly one power iteration;
//   - a result cache: full top-k answers under
//     (generation, ratesKey, mode, k, canonical query), so a repeated
//     query is a hash lookup instead of a solve — and, once its first
//     repeat has attached the encoded response to the entry
//     (AttachBody, Answer.Body), a lookup instead of a rendering too.
//
// Invalidation is implicit: publishing new rates changes the rates key,
// and swapping in a new corpus generation changes the generation
// component, making every old entry unreachable — a cached answer can
// never cross generations. Old same-term vectors are not
// wasted, though — the first solve of a term under the new rates pulls
// the previous version's converged vector OUT of the cache and hands it
// to rank.Options.Init (warm-start reuse, the paper's Section 6.2
// optimization applied across rate updates). That happens on demand, on
// the miss path: the cache runs no background work and remembers no
// versions.
package cache

import (
	"context"
	"strconv"
	"strings"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/lru"
	"authorityflow/internal/rank"
)

// Options configure a CachedEngine.
type Options struct {
	// MaxBytes is the total byte budget across both caches, split 7/8
	// term vectors, 1/8 results (term vectors are the expensive thing to
	// recompute). Zero means DefaultMaxBytes.
	MaxBytes int64

	PrewarmTerms int // inert: see Close
}

// DefaultMaxBytes is the default total cache budget (64 MiB).
const DefaultMaxBytes int64 = 64 << 20

// lruShards is the lock-striping factor of each LRU.
const lruShards = 8

// CachedEngine wraps a core.Engine with the serving cache. All methods
// are safe for unbounded concurrent use; the underlying engine may be
// used directly at the same time (cache entries are keyed by corpus
// generation and rates identity, so they can never serve stale answers
// after a SetRates or a SwapCorpus).
type CachedEngine struct {
	eng     *core.Engine
	vectors *lru.Sharded
	results *lru.Sharded
	flights flightGroup
	stats   stats
}

// New builds a CachedEngine over eng. It starts nothing and registers
// nothing: the value is two LRUs, a flight group and counters.
func New(eng *core.Engine, opts Options) *CachedEngine {
	total := opts.MaxBytes
	if total <= 0 {
		total = DefaultMaxBytes
	}
	c := &CachedEngine{eng: eng}
	c.vectors = lru.New(total-total/8, lruShards, &c.stats.vectorEvictions)
	c.results = lru.New(total/8, lruShards, &c.stats.resultEvictions)
	return c
}

// Options.PrewarmTerms, StatsSnapshot.Prewarmed, CachedEngine.Close,
// the second parameter of server.WithCache and server.Server.Close are
// what is left of the prewarmer (a goroutine that re-solved the hottest
// terms after every rates publication; the miss path's on-demand warm
// start replaced it). cmd/afqbench binds these five names and its
// sources are frozen, so they stay as inert compile-compatibility
// members — the option is ignored, the counter reads 0, the two Close
// methods do nothing — until the benchmark can drop them; nothing else
// in the module may set, read or call them.

// Close does nothing.
func (c *CachedEngine) Close() {}

// Engine returns the wrapped engine.
func (c *CachedEngine) Engine() *core.Engine { return c.eng }

// ResultItem is one cached ranked node: what a top-k answer needs to be
// re-rendered without touching score vectors.
type ResultItem struct {
	Node   graph.NodeID
	Score  float64
	InBase bool
}

// Answer.Source values: how a cache-enabled query path produced its
// answer. Exported as constants so the observability layer's
// cache-outcome metric labels and the HTTP responses' "cache" field
// can never disagree on spelling.
const (
	// SourceResult: the full top-k answer came from the result cache.
	SourceResult = "result"
	// SourceTerm: a cached converged term vector was re-ranked (top-k
	// scan only, no kernel work).
	SourceTerm = "term"
	// SourceComputed: a power-iteration solve ran — possibly another
	// concurrent caller's (see StatsSnapshot.SingleflightDedup).
	SourceComputed = "computed"
)

// Sources lists every Answer.Source value, in cheapest-first order —
// the label domain of the server's cache-outcome counters.
func Sources() []string { return []string{SourceResult, SourceTerm, SourceComputed} }

// Answer is one served query answer.
type Answer struct {
	// Query is the query that was answered.
	Query *ir.Query
	// Results is the top-k list, descending score. The slice is shared
	// with the cache and must be treated as read-only.
	Results []ResultItem
	// Iterations is the power-iteration count of the solve that
	// produced the answer (0 only for a degenerate empty query).
	Iterations int
	// BaseSet is the base-set size |S(Q)|.
	BaseSet int
	// Version is the rates-snapshot version the answer is valid for.
	Version uint64
	// Generation is the corpus generation the answer was computed
	// under; node IDs in Results are only meaningful against that
	// generation's graph.
	Generation uint64
	// Source reports how the answer was produced: SourceResult,
	// SourceTerm, or SourceComputed (see the Source constants).
	Source string

	// entry is the result-cache entry a single-query result hit was
	// served from and key the key it sits under, for Body and AttachBody;
	// entry is nil on every other answer.
	key   string
	entry *cachedResult
}

// Body returns the encoded response stored with the result-cache entry
// this answer was served from, provided it was rendered for a query
// spelled exactly as query; nil otherwise (not a result hit, no body
// attached yet, or a body rendered for another spelling of the same
// canonical query). The bytes are shared with the cache and read-only.
func (a *Answer) Body(query string) []byte {
	if a.entry == nil || a.entry.body == nil || a.entry.bodyFor != query {
		return nil
	}
	return a.entry.body
}

// cachedResult is the result cache's stored value.
type cachedResult struct {
	items   []ResultItem
	iters   int
	baseN   int
	version uint64
	gen     uint64
	// body is the entry's encoded hit-form response as rendered for the
	// query spelled bodyFor; nil until the first hit attaches it.
	body    []byte
	bodyFor string
}

// termVector is the term-vector cache's stored value: one converged
// single-term ObjectRank2 execution. The vector is immutable after
// insertion and is never returned to the engine's buffer pool.
type termVector struct {
	vec       []float64
	iters     int
	baseN     int
	converged bool
	// warmStarted records whether this solve was initialized from the
	// previous rates version's vector (telemetry only).
	warmStarted bool
}

// Iterations returns the iteration count of the solve that produced
// the vector.
func (tv *termVector) Iterations() int { return tv.iters }

// ---- key derivation ----

// stateKey is the cache-key identity of one pinned engine state: the
// corpus generation plus the rate-vector fingerprint. Keying by value
// fingerprint rather than by version means value-identical republished
// rates keep cache entries valid WITHIN a generation, and a derived
// WithRates view (its parent's version, other rates) can never be
// served its parent's entries; the generation component guarantees no
// entry survives a corpus swap (even one that republishes an identical
// rate vector over a new graph).
type stateKey struct {
	gen uint64
	rk  uint64
}

// keyOf reads the pinned state's identity off the snapshot, which
// carries it.
func keyOf(pin *core.Pinned) stateKey {
	return stateKey{gen: pin.Generation(), rk: pin.RatesKey()}
}

// modeTag spells a ranking mode inside a key; the empty mode is
// authority.
func modeTag(m core.Mode) string {
	if m == "" {
		return string(core.ModeAuthority)
	}
	return string(m)
}

// termKey is the term-vector cache key. All directions share ONE LRU —
// hot authority terms can evict cold hub vectors and vice versa — and
// the mode component keeps a key from aliasing across directions.
func termKey(sk stateKey, m core.Mode, term string) string {
	return "t\x00" + modeTag(m) + "\x00" + strconv.FormatUint(sk.gen, 16) + "\x00" + strconv.FormatUint(sk.rk, 16) + "\x00" + term
}

// resultKey is the result cache key; the mode component keeps the two
// directions' answers for one query apart.
func resultKey(sk stateKey, m core.Mode, k int, q *ir.Query) string {
	cq := q.Canonical()
	var b strings.Builder
	b.Grow(len(cq) + 64) // tag, mode, two hex uint64s, k and separators fit in 64
	b.WriteString("r\x00")
	b.WriteString(modeTag(m))
	b.WriteString("\x00")
	b.WriteString(strconv.FormatUint(sk.gen, 16))
	b.WriteString("\x00")
	b.WriteString(strconv.FormatUint(sk.rk, 16))
	b.WriteString("\x00")
	b.WriteString(strconv.Itoa(k))
	b.WriteString("\x00")
	b.WriteString(cq)
	return b.String()
}

// singleTerm reports whether q is effectively a single-keyword query
// (exactly one positive-weight term). For such queries the normalized
// base distribution is independent of the term's weight, so one cached
// vector serves them all.
func singleTerm(q *ir.Query) (string, bool) {
	terms := q.Terms()
	weights := q.Weights()
	found := ""
	for i, t := range terms {
		if weights[i] <= 0 {
			continue
		}
		if found != "" {
			return "", false
		}
		found = t
	}
	return found, found != ""
}

// ---- size accounting ----

const entryOverhead = 96 // map entry + lruEntry + headers, approximate

func termEntrySize(key string, n int) int64 {
	return int64(8*n + len(key) + entryOverhead)
}

func resultEntrySize(key string, k int) int64 {
	return int64(24*k + len(key) + entryOverhead)
}

// ---- query paths ----

// QueryModePinnedCtx answers q with the top k nodes under pin in the
// given ranking mode — the entry point the /v1/query surface funnels
// every read through. It consults the result cache, then (for
// single-keyword queries) the term-vector cache, then runs the same
// solve the uncached engine would. Cache-hit answers in every mode are
// bit-identical to the answer computed on the original miss.
//
// The caller stops waiting the moment ctx dies and receives ctx.Err().
// A cancelled caller never aborts a shared in-flight solve while other
// callers still want it — the solve runs detached and is cancelled only
// when EVERY waiter has left (see flightGroup). Cache fills from shared
// solves therefore land even when the caller that triggered them gave
// up.
func (c *CachedEngine) QueryModePinnedCtx(ctx context.Context, pin *core.Pinned, q *ir.Query, k int, m core.Mode) (*Answer, error) {
	return c.queryAt(ctx, pin, q, k, nil, m)
}

// QueryFromPinnedCtx is the authority-mode QueryModePinnedCtx
// warm-started from a previous score vector: on a full miss the solve
// starts from init instead of the global PageRank. The reformulation
// flow uses it to seed the reformulated query's answer at the exact
// engine state it just published. init is only read.
func (c *CachedEngine) QueryFromPinnedCtx(ctx context.Context, pin *core.Pinned, q *ir.Query, k int, init []float64) (*Answer, error) {
	return c.queryAt(ctx, pin, q, k, init, core.ModeAuthority)
}

// queryAt is the single-query serving path. init warm-starts only the
// multi-keyword miss solve and must come from the same direction.
func (c *CachedEngine) queryAt(ctx context.Context, pin *core.Pinned, q *ir.Query, k int, init []float64, m core.Mode) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 10
	}
	sk := keyOf(pin)
	key := resultKey(sk, m, k, q)
	if e, ok := c.results.Get(key); ok {
		c.stats.resultHits.Add(1)
		cr := e.(*cachedResult)
		a := c.answerFrom(cr, q, SourceResult)
		a.key, a.entry = key, cr
		return a, nil
	}
	c.stats.resultMisses.Add(1)

	if term, ok := singleTerm(q); ok {
		tv, hit, err := c.termVectorFor(ctx, pin, sk, m, term)
		if err != nil {
			return nil, err
		}
		src := SourceComputed
		if hit {
			src = SourceTerm
		}
		return c.answerFrom(c.storeTopK(pin, key, term, k, tv.vec, tv.iters, tv.baseN), q, src), nil
	}

	// Multi-keyword: run the full solve (identical to the uncached
	// engine's path, so cached answers are bit-compatible with it),
	// deduplicating concurrent identical queries through the flight
	// group. The solve runs under the flight's DETACHED context, so
	// this caller's cancellation cannot abort a fill that other
	// callers are still waiting on.
	spec := core.SolveSpec{Queries: []*ir.Query{q}, Mode: m}
	if init != nil {
		spec.Inits = [][]float64{init}
	}
	val, _, err := c.flights.DoCtx(ctx, key, func(dctx context.Context) (any, error) {
		if e, ok := c.results.Get(key); ok { // lost a miss/flight race
			return e.(*cachedResult), nil
		}
		rs, rerr := pin.Solve(dctx, spec)
		if rerr != nil {
			return nil, rerr // all waiters left; solve abandoned
		}
		c.stats.computes.Add(1)
		cr := resultFrom(rs[0], k)
		c.eng.Release(rs[0])
		c.results.Put(key, cr, resultEntrySize(key, len(cr.items)))
		return cr, nil
	})
	if err != nil {
		return nil, err
	}
	return c.answerFrom(val.(*cachedResult), q, SourceComputed), nil
}

// QueryBatchModePinnedCtx answers a whole panel of queries under ONE
// pinned snapshot — the /v1/query/batch serving path. ks carries the
// per-query top-k (len(ks) must equal len(qs); entries <= 0 default to
// 10) and modes the per-query ranking mode (nil — all authority — or
// one per query).
//
// Items are partitioned by direction: the authority and hub subsets
// each run the blocked path below. Answers land at their original
// indices, each the same answer the corresponding single
// QueryModePinnedCtx call would produce.
//
// On cancellation the returned slice is partial: answers for queries
// served from cache or from columns that converged before the cutoff
// are filled, the rest are nil, and the first context error is
// returned.
func (c *CachedEngine) QueryBatchModePinnedCtx(ctx context.Context, pin *core.Pinned, qs []*ir.Query, ks []int, modes []core.Mode) ([]*Answer, error) {
	if len(ks) != len(qs) || (modes != nil && len(modes) != len(qs)) {
		panic("cache: QueryBatchModePinnedCtx got " + strconv.Itoa(len(ks)) + " k values and " + strconv.Itoa(len(modes)) + " modes for " + strconv.Itoa(len(qs)) + " queries")
	}
	var authIdx, hubIdx []int
	for i, m := range modes {
		if m == core.ModeHub {
			hubIdx = append(hubIdx, i)
		} else {
			authIdx = append(authIdx, i)
		}
	}
	if len(hubIdx) == 0 {
		return c.queryBatchDir(ctx, pin, qs, ks, core.ModeAuthority)
	}

	answers := make([]*Answer, len(qs))
	var firstErr error
	runDir := func(idx []int, m core.Mode) {
		if len(idx) == 0 {
			return
		}
		subQ := make([]*ir.Query, len(idx))
		subK := make([]int, len(idx))
		for j, i := range idx {
			subQ[j] = qs[i]
			subK[j] = ks[i]
		}
		sub, err := c.queryBatchDir(ctx, pin, subQ, subK, m)
		if sub != nil { // nil when ctx was dead on entry
			for j, i := range idx {
				answers[i] = sub[j]
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	runDir(authIdx, core.ModeAuthority)
	runDir(hubIdx, core.ModeHub)
	return answers, firstErr
}

// queryBatchDir is the blocked batch path for one ranking direction
// (authority or hub). Per query it consults the result cache, then
// (single-keyword queries) the term-vector cache; every remaining miss
// becomes a column of a single Pinned.Solve, deduplicated within the
// batch — repeated terms and repeated canonical multi-keyword queries
// share one column. Single-term columns warm-start from the previous
// rates version's vector when resident, exactly as the single-query
// miss path does, and fill the term-vector cache; every miss fills the
// result cache.
//
// The batch path bypasses the singleflight group: a concurrent
// identical user miss may duplicate one solve (benign — same snapshot,
// last insert wins) but a batch can never be serialized behind per-term
// flights.
func (c *CachedEngine) queryBatchDir(ctx context.Context, pin *core.Pinned, qs []*ir.Query, ks []int, m core.Mode) ([]*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sk := keyOf(pin)
	answers := make([]*Answer, len(qs))
	kk := make([]int, len(qs))
	for i, k := range ks {
		if k <= 0 {
			k = 10
		}
		kk[i] = k
	}

	// column is one pending kernel column; pending maps each missed
	// query onto its (possibly shared) column.
	type column struct {
		term string // non-empty for single-term columns
		tkey string
	}
	type pendingQ struct {
		i   int    // index into qs
		key string // result-cache key
		col int    // index into cols
	}
	var cols []column
	var queries []*ir.Query
	var inits [][]float64
	var pend []pendingQ
	colByID := make(map[string]int)

	for i, q := range qs {
		key := resultKey(sk, m, kk[i], q)
		if e, ok := c.results.Get(key); ok {
			c.stats.resultHits.Add(1)
			answers[i] = c.answerFrom(e.(*cachedResult), q, SourceResult)
			continue
		}
		c.stats.resultMisses.Add(1)
		col := column{}
		solveQ, id := q, "q\x00"+q.Canonical()
		if term, ok := singleTerm(q); ok {
			col = column{term: term, tkey: termKey(sk, m, term)}
			if e, ok := c.vectors.Get(col.tkey); ok {
				c.stats.vectorHits.Add(1)
				tv := e.(*termVector)
				answers[i] = c.answerFrom(c.storeTopK(pin, key, term, kk[i], tv.vec, tv.iters, tv.baseN), q, SourceTerm)
				continue
			}
			c.stats.vectorMisses.Add(1)
			solveQ, id = ir.NewQuery(term), "t\x00"+term
		}
		ci, ok := colByID[id]
		if !ok {
			ci = len(cols)
			colByID[id] = ci
			cols = append(cols, col)
			queries = append(queries, solveQ)
			var init []float64
			if col.term != "" {
				init = c.donation(pin, sk, m, col.term)
			}
			inits = append(inits, init)
		} else {
			c.flights.dedup.Add(1) // in-batch dedup, same accounting as a joined flight
		}
		pend = append(pend, pendingQ{i: i, key: key, col: ci})
	}

	if len(cols) == 0 {
		return answers, nil
	}
	results, err := pin.Solve(ctx, core.SolveSpec{Queries: queries, Mode: m, Inits: inits})

	// Harvest: single-term columns fill the term-vector cache first so
	// the pending renders below can share the copied vector.
	tvs := make([]*termVector, len(cols))
	for ci, res := range results {
		if res == nil {
			continue // cancelled column
		}
		c.stats.computes.Add(1)
		if cols[ci].term != "" {
			tvs[ci] = c.putTerm(cols[ci].tkey, res, inits[ci] != nil)
		}
	}
	for _, p := range pend {
		res := results[p.col]
		if res == nil {
			continue // answers[p.i] stays nil; err reports the cutoff
		}
		var cr *cachedResult
		if tv := tvs[p.col]; tv != nil {
			cr = c.storeTopK(pin, p.key, cols[p.col].term, kk[p.i], tv.vec, tv.iters, tv.baseN)
		} else {
			cr = resultFrom(res, kk[p.i])
			c.results.Put(p.key, cr, resultEntrySize(p.key, len(cr.items)))
		}
		answers[p.i] = c.answerFrom(cr, qs[p.i], SourceComputed)
	}
	for _, res := range results {
		if res != nil {
			c.eng.Release(res)
		}
	}
	return answers, err
}

// resultFrom converts a live RankResult into a cached top-k entry.
func resultFrom(res *core.RankResult, k int) *cachedResult {
	ranked := res.TopK(k)
	items := make([]ResultItem, len(ranked))
	for i, r := range ranked {
		items[i] = ResultItem{Node: r.Node, Score: r.Score, InBase: res.InBase(r.Node)}
	}
	return &cachedResult{items: items, iters: res.Iterations, baseN: len(res.Base), version: res.RatesVersion, gen: res.Generation}
}

// storeTopK ranks the top k of a single-term score vector and stores the
// answer in the result cache so the next identical request skips even
// the top-k scan.
func (c *CachedEngine) storeTopK(pin *core.Pinned, key, term string, k int, vec []float64, iters, baseN int) *cachedResult {
	ranked := rank.TopK(vec, k)
	items := make([]ResultItem, len(ranked))
	ix := pin.Corpus().Index() // the generation the vector was solved on
	for i, r := range ranked {
		items[i] = ResultItem{
			Node:   r.Node,
			Score:  r.Score,
			InBase: ix.TF(int32(r.Node), term) > 0,
		}
	}
	cr := &cachedResult{items: items, iters: iters, baseN: baseN, version: pin.Version(), gen: pin.Generation()}
	c.results.Put(key, cr, resultEntrySize(key, len(items)))
	return cr
}

func (c *CachedEngine) answerFrom(cr *cachedResult, q *ir.Query, source string) *Answer {
	return &Answer{
		Query:      q,
		Results:    cr.items,
		Iterations: cr.iters,
		BaseSet:    cr.baseN,
		Version:    cr.version,
		Generation: cr.gen,
		Source:     source,
	}
}

// AttachBody stores body — the encoded response a result hit was just
// answered with, rendered for the query spelled query — with the
// result-cache entry a was served from, so the next hit spelled the same
// way is answered by Answer.Body. The entry is re-Put as a copy with its
// accounted size raised by the body: bodies live inside the result
// budget and leave with their entry on eviction, and an entry whose rates
// or generation were replaced is simply never asked for again. The first
// body wins: an answer that is not a result hit, or whose entry already
// carries one, is left alone, and so is one too large for an LRU shard
// (Put would refuse it on every hit and count an eviction each time).
// The cache keeps body; the caller must not write to it afterwards.
func (c *CachedEngine) AttachBody(a *Answer, query string, body []byte) {
	if a.entry == nil || a.entry.body != nil {
		return
	}
	size := resultEntrySize(a.key, len(a.entry.items)) + int64(len(body)+len(query))
	if size > c.results.Budget()/lruShards {
		return
	}
	cr := *a.entry
	cr.body, cr.bodyFor = body, query
	c.results.Put(a.key, &cr, size)
}

// termVectorFor returns the converged single-term vector for term in
// ranking direction m under the pinned snapshot, computing (at most
// once across concurrent callers) on a miss. hit reports whether the
// vector came straight from the cache. The solve runs under the flight
// group's detached context: ctx governs only this caller's wait (see
// QueryModePinnedCtx).
func (c *CachedEngine) termVectorFor(ctx context.Context, pin *core.Pinned, sk stateKey, m core.Mode, term string) (tv *termVector, hit bool, err error) {
	key := termKey(sk, m, term)
	if e, ok := c.vectors.Get(key); ok {
		c.stats.vectorHits.Add(1)
		return e.(*termVector), true, nil
	}
	c.stats.vectorMisses.Add(1)
	val, _, err := c.flights.DoCtx(ctx, key, func(dctx context.Context) (any, error) {
		if e, ok := c.vectors.Get(key); ok { // lost a miss/flight race
			return e.(*termVector), nil
		}
		init := c.donation(pin, sk, m, term)
		rs, err := pin.Solve(dctx, core.SolveSpec{Queries: []*ir.Query{ir.NewQuery(term)}, Mode: m, Inits: [][]float64{init}})
		if err != nil {
			// Solve abandoned (every waiter left): nothing is
			// cached; the next miss recomputes. The donated
			// warm-start vector (if any) is lost with it —
			// acceptable, it was already invalid under the new rates.
			return nil, err
		}
		c.stats.computes.Add(1)
		tv := c.putTerm(key, rs[0], init != nil)
		c.eng.Release(rs[0])
		return tv, nil
	})
	if err != nil {
		return nil, false, err
	}
	return val.(*termVector), false, nil
}

// donation removes and returns the converged vector term had, in
// direction m, under the rates the pinned snapshot replaced — the warm
// start of the first solve after a rates bump, which then refines an
// already-close vector instead of starting from the global PageRank. It
// returns nil when there is nothing to donate: no snapshot was replaced
// in this generation (so a vector sized for another graph is never
// donated), the publication left the rates value-identical (the previous
// key IS the current one), or the vector is not resident.
func (c *CachedEngine) donation(pin *core.Pinned, sk stateKey, m core.Mode, term string) []float64 {
	prev, ok := pin.PreviousRatesKey()
	if !ok || prev == sk.rk {
		return nil
	}
	if old, ok := c.vectors.Remove(termKey(stateKey{gen: sk.gen, rk: prev}, m, term)); ok {
		return old.(*termVector).vec
	}
	return nil
}

// putTerm copies a solved single-term result into the term-vector cache
// under key. warm records that the solve started from a donation.
func (c *CachedEngine) putTerm(key string, res *core.RankResult, warm bool) *termVector {
	if warm {
		c.stats.warmStarts.Add(1)
	}
	tv := &termVector{
		vec:         append([]float64(nil), res.Scores...),
		iters:       res.Iterations,
		baseN:       len(res.Base),
		converged:   res.Converged,
		warmStarted: warm,
	}
	c.vectors.Put(key, tv, termEntrySize(key, len(tv.vec)))
	return tv
}

// RankModePinnedCtx produces a full core.RankResult under the pinned
// snapshot in the given mode, serving single-keyword queries from the
// term-vector cache (the scores are copied out, so the
// caller may Release the result as usual) and everything else by a
// normal solve. The explain and audit paths use it — they need whole
// score vectors, not top-k lists. See QueryModePinnedCtx for the
// shared-solve detachment rules.
func (c *CachedEngine) RankModePinnedCtx(ctx context.Context, pin *core.Pinned, q *ir.Query, m core.Mode) (*core.RankResult, error) {
	// Like queryAt: a dead context stops here, rather than racing a
	// shared solve it would start and then have to abandon.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	term, ok := singleTerm(q)
	if !ok {
		rs, err := pin.Solve(ctx, core.SolveSpec{Queries: []*ir.Query{q}, Mode: m})
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}
	tv, _, err := c.termVectorFor(ctx, pin, keyOf(pin), m, term)
	if err != nil {
		return nil, err
	}
	return &core.RankResult{
		Query:        q,
		Scores:       append([]float64(nil), tv.vec...),
		Base:         pin.BaseSet(q),
		Iterations:   tv.iters,
		Converged:    tv.converged,
		RatesVersion: pin.Version(),
		Generation:   pin.Generation(),
	}, nil
}

// RankPinnedCtx is RankModePinnedCtx in authority mode.
func (c *CachedEngine) RankPinnedCtx(ctx context.Context, pin *core.Pinned, q *ir.Query) (*core.RankResult, error) {
	return c.RankModePinnedCtx(ctx, pin, q, core.ModeAuthority)
}

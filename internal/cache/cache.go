// Package cache is the serving-path cache of the ObjectRank2 system:
// the layer that makes repeated and concurrent querying cheap. Its
// term vectors, kept where queries find them and refined on demand, are
// this system's form of the [BHP04] precomputation the paper names in
// Section 6.2; nothing is solved ahead of a request or kept on disk.
//
// It holds two sharded, byte-budgeted LRU caches. Each answers only a
// reader whose engine state matches the one its entry was computed
// under, plus the ranking mode:
//
//   - a term-vector cache: ONE slot per (generation, mode, term), holding
//     the term's latest converged ObjectRank2 score vector and the rates
//     key it was solved under (core.Pinned.RatesKey), populated on demand
//     through a singleflight group so N concurrent misses on one term at
//     one rates run exactly one power iteration;
//   - the system's one answer cache: top-k answers under (scope,
//     generation, rates version, mode, k, canonical query), global and
//     personalized (Scope), so a repeated query is a hash lookup instead
//     of a solve — and, once its first repeat has attached the encoded
//     response to the entry (AttachBody, Answer.Body), a lookup instead of
//     a rendering too.
//
// Invalidation is implicit: a publish changes the rates version, so a
// result is never found again, and unless the rates are value-identical
// the rates key, so a slot's vector no longer hits; a new corpus
// generation makes no entry of the old graph reachable. A slot's vector
// is not wasted, though: the next solve of the term, under whatever
// rates, starts from it (rank.Options.Init, the paper's Section 6.2 warm
// start applied across rate updates) and replaces it. That happens on
// demand, on the miss path: the cache runs no background work, and a
// publish leaves no superseded vector behind.
//
// There is one miss path. probe reads both LRUs and, finding nothing,
// names the column that must be answered; solve answers pending columns
// of one direction — a multi-keyword column whose terms' vectors are all
// resident is assembled from them (Σ γ_t·r_t, fixpoint linearity, no
// kernel work), everything else runs through Pinned.Solve, the only call
// to it here, taking donations and filling the term-vector LRU; harvest
// turns answered columns into result entries and releases the rest. A
// single query is probe, then one flight around a one-column solve; a
// batch is probe per item, then one solve per direction that first
// gathers the terms its multi-keyword items lack; a full-vector Rank is
// the probe restricted to the vector LRU, and a list of term vectors
// (a profile blend's mixture terms) is that probe per term, then one
// solve of the missing ones. DESIGN.md §6 has the table.
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
	// SourceTerm: the answer was read off cached converged term vectors
	// with no kernel work — one re-ranked, or several combined into a
	// multi-keyword ranking (Σ γ_t·r_t) and ranked.
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
	// produced the answer (0 only for a degenerate empty query); for an
	// answer assembled from term vectors, the largest of theirs.
	Iterations int
	// BaseSet is the base-set size |S(Q)|.
	BaseSet int
	// Version is the rates-snapshot version the answer was served at.
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
// canonical query). An answer whose Source another tier relabelled (a
// profile's global answer) is not a result hit: its response is not the
// entry's. The bytes are shared with the cache and read-only.
func (a *Answer) Body(query string) []byte {
	if a.Source != SourceResult || a.entry == nil || a.entry.body == nil || a.entry.bodyFor != query {
		return nil
	}
	return a.entry.body
}

// cachedResult is the result cache's stored value. Its generation and
// rates version are its key's, so a reader takes them off its own pin.
type cachedResult struct {
	items []ResultItem
	iters int
	baseN int
	// body is the entry's encoded hit-form response as rendered for the
	// query spelled bodyFor; nil until the first hit attaches it.
	body    []byte
	bodyFor string
}

// termVector is the term-vector cache's stored value: one converged
// single-term ObjectRank2 execution. The vector is immutable after
// insertion and is never returned to the engine's buffer pool.
type termVector struct {
	vec   []float64
	rk    uint64 // the rates key it was solved under: what a hit must match
	iters int
	baseN int
	// mass is the term's base mass at query weight 1
	// (core.RankResult.BaseMass): what weighs the vector in a
	// multi-keyword ranking assembled from it.
	mass      float64
	converged bool
	// warmStarted records whether this solve was initialized from the
	// vector its slot held before (telemetry only).
	warmStarted bool
}

// ---- key derivation ----

// stateKey is the cache-key identity of one pinned engine state. A term
// vector is keyed by the rate-vector fingerprint, so value-identical
// republished rates keep it valid; a result by the rates version, which
// it reports as the token /v1/reformulate checks (DESIGN.md §6). The
// generation guarantees no entry survives a corpus swap.
type stateKey struct {
	gen uint64
	rk  uint64
	ver uint64
}

// keyOf reads the pinned state's identity off the snapshot, which
// carries it.
func keyOf(pin *core.Pinned) stateKey {
	return stateKey{gen: pin.Generation(), rk: pin.RatesKey(), ver: pin.Version()}
}

// Scope names whose ranking a result entry holds: the zero Scope the
// global one, a profile's (ID, Rev) that revision's personalized one.
type Scope struct {
	ID  string // holds no NUL byte
	Rev uint64
}

// modeTag spells a ranking mode inside a key; the empty mode is
// authority.
func modeTag(m core.Mode) string {
	if m == "" {
		return string(core.ModeAuthority)
	}
	return string(m)
}

// slotKey is the term-vector cache key: one slot per (generation, mode,
// term), whatever rates its vector was solved under. All directions
// share ONE LRU — hot authority terms can evict cold hub vectors and
// vice versa — and the mode component keeps a key from aliasing across
// directions.
func slotKey(gen uint64, m core.Mode, term string) string {
	return "t\x00" + modeTag(m) + "\x00" + strconv.FormatUint(gen, 16) + "\x00" + term
}

// termKey is a term column's identity: its slot plus the rates key it is
// solved under. It keys the column's flight and its place in a batch, so
// no two solves at different rates are ever merged.
func termKey(sk stateKey, m core.Mode, term string) string {
	return slotKey(sk.gen, m, term) + "\x00" + strconv.FormatUint(sk.rk, 16)
}

// resultKey is the result cache key, the system's only spelling of an
// answer's identity; mode and a scoped key's own tag keep it unaliased.
func resultKey(sk stateKey, sc Scope, m core.Mode, k int, q *ir.Query) string {
	cq := q.Canonical()
	var b strings.Builder
	b.Grow(len(cq) + len(sc.ID) + 80) // tags, mode, three hex uint64s, k and separators fit in 80
	if sc.ID == "" {
		b.WriteString("r\x00")
	} else {
		b.WriteString("p\x00" + sc.ID + "\x00" + strconv.FormatUint(sc.Rev, 16) + "\x00")
	}
	b.WriteString(modeTag(m))
	b.WriteString("\x00")
	b.WriteString(strconv.FormatUint(sk.gen, 16))
	b.WriteString("\x00")
	b.WriteString(strconv.FormatUint(sk.ver, 16))
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

// ---- entry points: each a choice of arguments to probe, solve, harvest ----

// QueryModePinnedCtx answers q with the top k nodes under pin in the
// given ranking mode — the entry point the /v1/query surface funnels
// every read through: probe, and on a miss one flight around a
// one-column solve, the same solve the uncached engine would run — or,
// for a multi-keyword query whose every term's vector is resident, the
// ranking assembled from them (Source term). Cache-hit answers in every
// mode are bit-identical to the answer produced on the original miss.
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
// engine state it just published; a multi-keyword query that brings init
// is always solved, never assembled. init is only read.
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
	it := c.probe(pin, sk, q, k, m, true)
	if it.src == SourceResult {
		a := answerFrom(pin, it.cr, q, SourceResult)
		a.key, a.entry = it.key, it.cr
		return a, nil
	}
	if it.col != nil {
		if it.col.term == "" {
			it.col.init = init
		}
		var err error
		if it, err = c.fly(ctx, pin, sk, m, it); err != nil {
			return nil, err
		}
	}
	return answerFrom(pin, it.cr, q, it.src), nil
}

// QueryBatchModePinnedCtx answers a whole panel of queries under ONE
// pinned snapshot — the /v1/query/batch serving path. ks carries the
// per-query top-k (len(ks) must equal len(qs); entries <= 0 default to
// 10) and modes the per-query ranking mode (nil — all authority — or
// one per query).
//
// Every item is probed; the misses become columns, deduplicated within
// the batch — repeated terms and repeated canonical multi-keyword
// queries share one — and each direction's columns are answered by ONE
// solve. A multi-keyword item is assembled from its terms' vectors: the
// terms not resident are solved as term columns in that same solve (and
// kept), beside the batch's other columns. Answers land at their
// original indices; a single-keyword item is the answer the single
// QueryModePinnedCtx call would produce, a multi-keyword one the answer
// that call produces once its terms are resident.
//
// The batch path bypasses the singleflight group: a concurrent
// identical user miss may duplicate one solve (benign — same snapshot,
// last insert wins) but a batch can never be serialized behind per-term
// flights.
//
// On cancellation the returned slice is partial: answers for queries
// served from cache or from columns that converged before the cutoff
// are filled, the rest are nil, and the first context error is
// returned.
func (c *CachedEngine) QueryBatchModePinnedCtx(ctx context.Context, pin *core.Pinned, qs []*ir.Query, ks []int, modes []core.Mode) ([]*Answer, error) {
	if len(ks) != len(qs) || (modes != nil && len(modes) != len(qs)) {
		panic("cache: QueryBatchModePinnedCtx got " + strconv.Itoa(len(ks)) + " k values and " + strconv.Itoa(len(modes)) + " modes for " + strconv.Itoa(len(qs)) + " queries")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sk := keyOf(pin)
	items := make([]item, len(qs))
	dirs := [2]struct {
		m    core.Mode
		cols []*column
		pend []*item
	}{{m: core.ModeAuthority}, {m: core.ModeHub}}
	colByID := make(map[string]*column)
	for i, q := range qs {
		d := &dirs[0]
		if modes != nil && modes[i] == core.ModeHub {
			d = &dirs[1]
		}
		k := ks[i]
		if k <= 0 {
			k = 10
		}
		it := &items[i]
		*it = c.probe(pin, sk, q, k, d.m, true)
		if it.col == nil {
			continue
		}
		// A column's identity in the batch: its term key, or for a
		// multi-keyword query the result key at k = 0, where no answer sits.
		id := it.col.tkey
		if id == "" {
			id = resultKey(sk, Scope{}, d.m, 0, q)
		}
		if col, ok := colByID[id]; ok {
			c.flights.dedup.Add(1) // in-batch dedup, same accounting as a joined flight
			it.col = col
		} else {
			colByID[id] = it.col
			d.cols = append(d.cols, it.col)
		}
		d.pend = append(d.pend, it)
	}
	var firstErr error
	for _, d := range dirs {
		if len(d.cols) == 0 {
			continue
		}
		if err := c.solve(ctx, pin, sk, d.m, d.cols, true); err != nil && firstErr == nil {
			firstErr = err
		}
		c.harvest(pin, d.cols, d.pend)
	}
	answers := make([]*Answer, len(qs))
	for i, it := range items {
		if it.cr != nil {
			answers[i] = answerFrom(pin, it.cr, it.q, it.src)
		}
	}
	return answers, firstErr
}

// RankModePinnedCtx produces a full core.RankResult under the pinned
// snapshot in the given mode — the explain and audit paths use it; they
// need whole score vectors, not top-k lists. It is the probe restricted
// to the vector LRU. A single-keyword query is served from its term
// vector, solved on a miss through the same flight as a /v1/query miss
// on that term; the result's Scores IS that resident vector, read-only
// and marked Shared, so the caller may Release the result as usual and
// the vector stays with the cache. A multi-keyword query is one
// unflighted column whose live result goes to the caller instead of the
// harvest: assembled when its terms are resident (with the query's base
// set attached, which explain reads), solved otherwise. See
// QueryModePinnedCtx for the shared-solve detachment rules.
func (c *CachedEngine) RankModePinnedCtx(ctx context.Context, pin *core.Pinned, q *ir.Query, m core.Mode) (*core.RankResult, error) {
	// Like queryAt: a dead context stops here, rather than racing a
	// shared solve it would start and then have to abandon.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sk := keyOf(pin)
	it := c.probe(pin, sk, q, 0, m, true)
	switch col := it.col; {
	case col == nil: // the term's vector is resident
	case col.term == "":
		if err := c.solve(ctx, pin, sk, m, []*column{col}, false); err != nil {
			return nil, err
		}
		if col.parts != nil {
			col.res.Base = pin.BaseSet(q)
		}
		return col.res, nil
	default:
		var err error
		if it, err = c.fly(ctx, pin, sk, m, it); err != nil {
			return nil, err
		}
	}
	return &core.RankResult{
		Query:        q,
		Scores:       it.tv.vec,
		Shared:       true,
		Base:         pin.BaseSet(q),
		Iterations:   it.tv.iters,
		Converged:    it.tv.converged,
		RatesVersion: pin.Version(),
		Generation:   pin.Generation(),
	}, nil
}

// RankPinnedCtx is RankModePinnedCtx in authority mode.
func (c *CachedEngine) RankPinnedCtx(ctx context.Context, pin *core.Pinned, q *ir.Query) (*core.RankResult, error) {
	return c.RankModePinnedCtx(ctx, pin, q, core.ModeAuthority)
}

// TermVectorsPinnedCtx returns the converged authority vectors of the
// distinct keywords terms under pin, in order — the vectors a profile
// blend reads. A resident vector is returned as it is; the missing ones are
// solved as term columns in ONE solve, taking donations, and kept. Every
// vector returned is the cache's own and read-only: the caller never
// writes or releases it. On cancellation only ctx's error is returned;
// the columns that converged stay resident.
func (c *CachedEngine) TermVectorsPinnedCtx(ctx context.Context, pin *core.Pinned, terms []string) ([][]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sk := keyOf(pin)
	items := make([]item, len(terms))
	var cols []*column
	for i, t := range terms {
		if items[i] = c.probe(pin, sk, ir.NewQuery(t), 0, core.ModeAuthority, true); items[i].col != nil {
			cols = append(cols, items[i].col)
		}
	}
	if len(cols) > 0 {
		err := c.solve(ctx, pin, sk, core.ModeAuthority, cols, false)
		c.harvest(pin, cols, nil)
		if err != nil {
			return nil, err
		}
	}
	out := make([][]float64, len(terms))
	for i, it := range items {
		if it.tv == nil {
			it.tv = it.col.tv
		}
		out[i] = it.tv.vec
	}
	return out, nil
}

// ---- the miss path: probe, solve, harvest ----

// column is one fixpoint to answer: what probe hands back when neither
// LRU could, and what solve fills in.
type column struct {
	q    *ir.Query // what is ranked: the bare term for a single-keyword column
	term string    // that keyword; "" for a multi-keyword column
	tkey string    // its termKey
	init []float64 // start vector: the caller's, else the donation solve asks for

	// Set by solve once the column is answered.
	res *core.RankResult // live until harvest releases it or a Rank caller takes it
	tv  *termVector      // single-keyword: the copy now resident in the vector LRU
	// parts are the terms of a multi-keyword column that solve assembled
	// rather than ran through the kernel; nil for a kernel column.
	parts []part
}

// part is one term of an assembled column: a positive-weight query term
// that occurs in some document.
type part struct {
	term string
	w    float64     // its weight in the query
	tv   *termVector // its converged vector, once resident
	col  *column     // the term column solve runs for it when it was not
}

// item is one (query, k) a caller wants in one direction, as probe
// leaves it: answered (cr, src), holding its resident vector (tv), or
// waiting on a column (col).
type item struct {
	q   *ir.Query
	k   int    // 0: the caller wants the whole vector (Rank…), not a top-k
	key string // result key; "" when k == 0
	cr  *cachedResult
	src string
	tv  *termVector
	col *column
}

// probe is the one read of both LRUs: the result entry for (q, k, m),
// else — q being a single-keyword query — its resident term vector,
// re-ranked into the result LRU, else the column the kernel must solve.
// k == 0 skips the result LRU: a Rank caller wants the vector. Every
// hit and miss counter moves here and nowhere else; count is false only
// for the re-probe a flight leader makes, which has been counted once.
func (c *CachedEngine) probe(pin *core.Pinned, sk stateKey, q *ir.Query, k int, m core.Mode, count bool) item {
	it := item{q: q, k: k}
	var n int64
	if count {
		n = 1
	}
	if k > 0 {
		it.key = resultKey(sk, Scope{}, m, k, q)
		if e, ok := c.results.Get(it.key); ok {
			c.stats.resultHits.Add(n)
			it.cr, it.src = e.(*cachedResult), SourceResult
			return it
		}
		c.stats.resultMisses.Add(n)
	}
	term, ok := singleTerm(q)
	if !ok {
		it.col = &column{q: q}
		return it
	}
	if tv := c.resident(sk, m, term); tv != nil {
		c.stats.vectorHits.Add(n)
		it.tv = tv
		if k > 0 {
			it.cr, it.src = c.rerank(pin, it.key, k, term, it.tv), SourceTerm
		}
		return it
	}
	c.stats.vectorMisses.Add(n)
	it.col = &column{q: ir.NewQuery(term), term: term, tkey: termKey(sk, m, term)}
	return it
}

// solve answers cols — pending columns of ONE direction — and is where
// a miss is decided. A multi-keyword column that brought no start vector
// and whose terms' vectors are all resident is assembled from them
// (assemble); with gather set (a batch) one that lacks some is assembled
// too, after its missing terms — each once, shared with the batch's own
// term columns — are solved beside the rest. Every other column runs
// through the kernel in the package's one call to Pinned.Solve. A
// single-keyword column starts from its slot's vector (donation) and
// replaces it in the term-vector LRU.
// A cancelled column — or an assembled one whose term column was — is
// left unanswered (res nil) and the context's error returned.
func (c *CachedEngine) solve(ctx context.Context, pin *core.Pinned, sk stateKey, m core.Mode, cols []*column, gather bool) error {
	run := make([]*column, 0, len(cols))
	var asm, gathered []*column
	var terms map[string]*column // gather: the term columns this solve runs, by key
	for _, col := range cols {
		if col.term != "" || col.init != nil {
			run = append(run, col)
			continue
		}
		col.parts = c.parts(pin, sk, m, col.q)
		ok := len(col.parts) > 0
		for i := range col.parts {
			p := &col.parts[i]
			if p.tv != nil {
				continue
			}
			if !gather {
				ok = false
				break
			}
			if terms == nil {
				terms = make(map[string]*column)
				for _, tc := range cols {
					if tc.term != "" {
						terms[tc.tkey] = tc
					}
				}
			}
			key := termKey(sk, m, p.term)
			if p.col = terms[key]; p.col == nil {
				p.col = &column{q: ir.NewQuery(p.term), term: p.term, tkey: key}
				terms[key] = p.col
				run, gathered = append(run, p.col), append(gathered, p.col)
			}
		}
		if !ok {
			col.parts = nil
			run = append(run, col)
			continue
		}
		asm = append(asm, col)
	}
	var err error
	if len(run) > 0 {
		spec := core.SolveSpec{Mode: m, Queries: make([]*ir.Query, len(run)), Inits: make([][]float64, len(run))}
		for i, col := range run {
			if col.term != "" && col.init == nil {
				col.init = c.donation(sk.gen, m, col.term)
			}
			spec.Queries[i], spec.Inits[i] = col.q, col.init
		}
		var results []*core.RankResult
		results, err = pin.Solve(ctx, spec)
		for i, res := range results {
			if res == nil {
				continue
			}
			c.stats.computes.Add(1)
			run[i].res = res
			if run[i].term != "" {
				run[i].tv = c.putTerm(sk, m, run[i].term, res, run[i].init != nil)
			}
		}
	}
	for _, tc := range gathered {
		c.eng.Release(tc.res) // its vector lives on in the LRU
		tc.res = nil
	}
	for _, col := range asm {
		c.assemble(pin, col)
	}
	return err
}

// parts lists the terms of q that carry base mass — positive weight, at
// least one document — in query order, each with its vector if that is
// resident. These reads move no hit or miss counter: the counters count
// what probe was asked.
func (c *CachedEngine) parts(pin *core.Pinned, sk stateKey, m core.Mode, q *ir.Query) []part {
	ix := pin.Corpus().Index()
	terms, weights := q.Terms(), q.Weights()
	out := make([]part, 0, len(terms))
	for i, t := range terms {
		if weights[i] <= 0 || ix.DF(t) == 0 {
			continue
		}
		out = append(out, part{term: t, w: weights[i], tv: c.resident(sk, m, t)})
	}
	return out
}

// assemble answers a multi-keyword column from its terms' converged
// vectors by fixpoint linearity (paper §6.2, [BHP04]): the query's jump
// distribution is Σ_t γ_t·ŝ_t over its terms' normalized base sets, so
// its ranking is r = Σ_t γ_t·r_t, with γ_t = Z_t/ΣZ and Z_t the term's
// base mass at its query weight, QTFSat(w)/QTFSat(1) times the mass kept
// with its vector. r is drawn from the engine's buffer pool like a
// solved column's scores and released the same way. Its Iterations is
// the largest of its terms', and it is Converged only if all of them
// are. A term column this solve ran and lost to cancellation leaves the
// column unanswered.
func (c *CachedEngine) assemble(pin *core.Pinned, col *column) {
	ix := pin.Corpus().Index()
	w, vs := make([]float64, len(col.parts)), make([][]float64, len(col.parts))
	res := &core.RankResult{Query: col.q, Converged: true, RatesVersion: pin.Version(), Generation: pin.Generation()}
	total := 0.0
	for i := range col.parts {
		p := &col.parts[i]
		if p.tv == nil {
			if p.tv = p.col.tv; p.tv == nil {
				return
			}
		}
		w[i] = ix.QTFSat(p.w) / ix.QTFSat(1) * p.tv.mass
		total += w[i]
		vs[i] = p.tv.vec
		res.Iterations = max(res.Iterations, p.tv.iters)
		res.Converged = res.Converged && p.tv.converged
	}
	for i := range w {
		w[i] /= total
	}
	res.Scores = pin.Combine(w, vs)
	col.res = res
}

// harvest turns answered columns into the result-LRU entries the items
// in pend wait for, and returns every column's live result to the
// engine's pool. An item whose column was cancelled stays unanswered;
// one that wants the vector (k == 0) needs no entry.
func (c *CachedEngine) harvest(pin *core.Pinned, cols []*column, pend []*item) {
	for _, it := range pend {
		col := it.col
		if col.res == nil || it.k == 0 {
			continue
		}
		it.src = SourceComputed
		switch {
		case col.tv != nil:
			it.cr = c.rerank(pin, it.key, it.k, col.term, col.tv)
		case col.parts != nil:
			terms := make([]string, len(col.parts))
			for i, p := range col.parts {
				terms[i] = p.term
			}
			ix := pin.Corpus().Index()
			it.cr = c.storeTopK(it.key, it.k, col.res.Scores, col.res.Iterations, ix.DocsWithAny(terms), containsAny(ix, terms))
			it.src = SourceTerm
		default:
			it.cr = c.storeTopK(it.key, it.k, col.res.Scores, col.res.Iterations, len(col.res.Base), col.res.InBase)
		}
	}
	for _, col := range cols {
		c.eng.Release(col.res)
		col.res = nil
	}
}

// fly resolves a probed miss through the flight group: N concurrent
// misses on one key run one detached one-column solve (see flightGroup),
// and a caller that lost a miss/flight race finds the entry by probing
// again. A single-keyword flight is keyed by the term and resolves to
// the vector — its waiters may want different ks, or the vector itself —
// so each re-ranks for itself; a multi-keyword one is keyed by the
// result key and resolves to the answer, computed or (all its terms
// resident) assembled.
func (c *CachedEngine) fly(ctx context.Context, pin *core.Pinned, sk stateKey, m core.Mode, it item) (item, error) {
	fkey, fk := it.col.tkey, 0
	if fkey == "" {
		fkey, fk = it.key, it.k
	}
	val, _, err := c.flights.DoCtx(ctx, fkey, func(dctx context.Context) (any, error) {
		won := c.probe(pin, sk, it.q, fk, m, false)
		if won.col != nil {
			won.col.init = it.col.init
			cols := []*column{won.col}
			if err := c.solve(dctx, pin, sk, m, cols, false); err != nil {
				// Every waiter left and the solve was abandoned: nothing is
				// cached, the next miss recomputes — from the same donation,
				// which stays in the term's slot.
				return nil, err
			}
			c.harvest(pin, cols, []*item{&won})
			won.tv = won.col.tv
		}
		return &won, nil
	})
	if err != nil {
		return it, err
	}
	won := val.(*item)
	it.tv, it.cr, it.src = won.tv, won.cr, SourceComputed
	if won.src == SourceTerm {
		it.src = SourceTerm // assembled by the flight
	}
	if it.cr == nil && it.k > 0 {
		it.cr = c.rerank(pin, it.key, it.k, it.col.term, it.tv)
	}
	return it, nil
}

// storeTopK is the one vector→top-k function: it ranks the top k of a
// converged score vector and stores the answer in the result cache, so
// the next identical request skips even the top-k scan.
func (c *CachedEngine) storeTopK(key string, k int, vec []float64, iters, baseN int, inBase func(graph.NodeID) bool) *cachedResult {
	ranked := rank.TopK(vec, k)
	items := make([]ResultItem, len(ranked))
	for i, r := range ranked {
		items[i] = ResultItem{Node: r.Node, Score: r.Score, InBase: inBase(r.Node)}
	}
	cr := &cachedResult{items: items, iters: iters, baseN: baseN}
	c.results.Put(key, cr, resultEntrySize(key, len(items)))
	return cr
}

// LookupScoped returns the authority answer stored under sc for (q, k)
// at pin's state, or nil. It moves no counter: the caller counts.
func (c *CachedEngine) LookupScoped(pin *core.Pinned, sc Scope, q *ir.Query, k int) *Answer {
	if e, ok := c.results.Get(resultKey(keyOf(pin), sc, core.ModeAuthority, k, q)); ok {
		return answerFrom(pin, e.(*cachedResult), q, SourceResult)
	}
	return nil
}

// StoreScoped stores the top k of vec, an authority ranking of q computed
// under pin, under sc (never the zero Scope); vec is only read.
func (c *CachedEngine) StoreScoped(pin *core.Pinned, sc Scope, q *ir.Query, k int, vec []float64, iters, baseN int, inBase func(graph.NodeID) bool) *Answer {
	cr := c.storeTopK(resultKey(keyOf(pin), sc, core.ModeAuthority, k, q), k, vec, iters, baseN, inBase)
	return answerFrom(pin, cr, q, SourceComputed)
}

// rerank is storeTopK over a term vector: a node is in the base set of a
// single-keyword query exactly when it contains the keyword.
func (c *CachedEngine) rerank(pin *core.Pinned, key string, k int, term string, tv *termVector) *cachedResult {
	ix := pin.Corpus().Index() // the generation the vector was solved on
	return c.storeTopK(key, k, tv.vec, tv.iters, tv.baseN, containsAny(ix, []string{term}))
}

// containsAny is the base-set membership test of a query over terms: a
// node is in the base set exactly when it contains one of them.
func containsAny(ix *ir.Index, terms []string) func(graph.NodeID) bool {
	return func(v graph.NodeID) bool {
		for _, t := range terms {
			if ix.TF(int32(v), t) > 0 {
				return true
			}
		}
		return false
	}
}

func answerFrom(pin *core.Pinned, cr *cachedResult, q *ir.Query, source string) *Answer {
	return &Answer{
		Query:      q,
		Results:    cr.items,
		Iterations: cr.iters,
		BaseSet:    cr.baseN,
		Version:    pin.Version(),
		Generation: pin.Generation(),
		Source:     source,
	}
}

// resident returns term's vector in direction m when its slot holds one
// solved under exactly sk's rates, nil otherwise. It moves no counter.
func (c *CachedEngine) resident(sk stateKey, m core.Mode, term string) *termVector {
	if e, ok := c.vectors.Get(slotKey(sk.gen, m, term)); ok && e.(*termVector).rk == sk.rk {
		return e.(*termVector)
	}
	return nil
}

// donation returns the vector term's slot holds in direction m of
// generation gen, whatever rates it was solved under — the warm start of
// the term's next solve, which then refines an already-close vector
// instead of starting from the global PageRank — or nil when the slot is
// empty. The slot keeps the vector until the solve's putTerm replaces it:
// the kernel only reads a start vector, so a caller still holding it
// (a Rank result marked Shared) is unaffected. The generation in the
// slot's key keeps a vector sized for another graph from being donated.
func (c *CachedEngine) donation(gen uint64, m core.Mode, term string) []float64 {
	if e, ok := c.vectors.Get(slotKey(gen, m, term)); ok {
		return e.(*termVector).vec
	}
	return nil
}

// putTerm copies a single-term result solved under sk into term's slot,
// replacing whatever vector the slot held. warm records that the solve
// started from a donation.
func (c *CachedEngine) putTerm(sk stateKey, m core.Mode, term string, res *core.RankResult, warm bool) *termVector {
	if warm {
		c.stats.warmStarts.Add(1)
	}
	tv := &termVector{
		vec:         append([]float64(nil), res.Scores...),
		rk:          sk.rk,
		iters:       res.Iterations,
		baseN:       len(res.Base),
		mass:        res.BaseMass,
		converged:   res.Converged,
		warmStarted: warm,
	}
	key := slotKey(sk.gen, m, term)
	c.vectors.Put(key, tv, termEntrySize(key, len(tv.vec)))
	return tv
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

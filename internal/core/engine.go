// Package core implements the primary contribution of "Explaining and
// Reformulating Authority Flow Queries" (ICDE 2008): the ObjectRank2
// ranking semantics with an IR-weighted base set (Section 3), the
// explaining-subgraph construction and flow-adjustment algorithm
// (Section 4, Figure 8), and content- and structure-based query
// reformulation from user relevance feedback (Section 5).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/lru"
	"authorityflow/internal/rank"
)

// Corpus is the immutable half of a query processor: the frozen data
// graph with its CSR adjacency, the inverted index over node text, the
// rank options, and the shared score-buffer pool.
// Everything in a Corpus is read-only after construction and therefore
// safe for unbounded concurrent use; several Engines (e.g. per-tenant
// rate assignments over one dataset) can share a single Corpus without
// duplicating the graph or index.
type Corpus struct {
	g  *graph.Graph
	ix *ir.Index
	// opts keeps the caller's raw options (zero fields and sentinels
	// intact — the kernel normalizes per run); nopts caches the
	// normalized view for components that need literal values, such as
	// the explain stage's damping factor.
	opts  rank.Options
	nopts rank.Options
	pool  *rank.BufferPool
}

// DefaultBlockSize is how many columns of a multi-column solve
// (batches, a profile blend's mixture terms) go to one kernel
// execution: the unit of SolveStats accounting and the bound on the jump
// vectors a Solve holds at once.
const DefaultBlockSize = 8

// ErrWarmStartMismatch reports a warm-started batch whose init slice
// does not pair up with its query slice. This is the one shape error
// the engine cannot repair locally: a wrong-LENGTH init VECTOR is a
// stale donation from another generation and silently degrades to a
// cold start (see Solve), but a wrong COUNT of vectors means the
// caller's bookkeeping desynchronized — e.g. a batch's column list
// mutated between assembling queries and donations — and no per-query
// pairing can be inferred. Callers get a typed
// error instead of the panic earlier builds raised.
var ErrWarmStartMismatch = errors.New("core: warm-start init count does not match query count")

// Config collects construction parameters for a Corpus (and hence an
// Engine).
type Config struct {
	// Rank options (damping, threshold, max iterations); zero fields
	// take the paper defaults (0.85, 0.002, 200) and the rank package's
	// explicit-zero sentinels are honored.
	Rank rank.Options
}

// NewCorpus indexes the text of every node of g under the default BM25
// parameters and freezes the immutable substrate of a query processor.
func NewCorpus(g *graph.Graph, cfg Config) *Corpus {
	ix := ir.BuildIndex(g.NumNodes(), func(i int) string { return g.Text(graph.NodeID(i)) }, ir.DefaultBM25())
	return newCorpus(g, ix, cfg)
}

// NewCorpusWithIndex is NewCorpus with a prebuilt inverted index —
// e.g. one loaded from a binary snapshot — so the tokenization pass,
// the dominant cost of corpus construction, is skipped entirely. The
// index must cover exactly g's nodes and carries its own BM25
// parameters.
func NewCorpusWithIndex(g *graph.Graph, ix *ir.Index, cfg Config) (*Corpus, error) {
	if ix.NumDocs() != g.NumNodes() {
		return nil, fmt.Errorf("core: index covers %d documents, graph has %d nodes", ix.NumDocs(), g.NumNodes())
	}
	return newCorpus(g, ix, cfg), nil
}

func newCorpus(g *graph.Graph, ix *ir.Index, cfg Config) *Corpus {
	return &Corpus{
		g:     g,
		ix:    ix,
		opts:  cfg.Rank,
		nopts: cfg.Rank.Normalized(),
		pool:  rank.NewBufferPool(),
	}
}

// Graph returns the corpus's data graph.
func (c *Corpus) Graph() *graph.Graph { return c.g }

// Index returns the corpus's inverted index.
func (c *Corpus) Index() *ir.Index { return c.ix }

// Options returns the rank options in effect (as configured; zero
// fields mean the paper defaults).
func (c *Corpus) Options() rank.Options { return c.opts }

// ratesSnapshot is one immutable published state of the mutable half of
// an Engine: a rate assignment, its flat vector (what the kernel
// reads), a monotonically increasing version, and the identity caches
// key on. Snapshots are never mutated after publication — reformulation
// builds a fresh snapshot and publishes it with a compare-and-swap — so
// readers that loaded a snapshot can keep using it lock-free for as
// long as they like.
type ratesSnapshot struct {
	rates   *graph.Rates
	alpha   []float64
	version uint64

	// key is alpha's graph.RateVectorKey: the snapshot carries its own
	// cache identity, so value-identical republished rates keep one key
	// and no consumer hashes a rate vector again.
	key uint64

	// zeros has bit t set iff alpha[t] is 0: the one thing an explaining
	// subgraph's topology reads of the rates (topology.go).
	zeros []uint64

	// plans are the snapshot's coefficient plans (rank.Plan), authority
	// then hub: what multi-column solves sweep over. Each is built by the
	// first multi-column Solve that pins the snapshot in that direction —
	// never at publish and never by a one-column solve, so a process that
	// only answers single queries holds none — and is collected with the
	// snapshot.
	plans [2]struct {
		once sync.Once
		plan *rank.Plan
	}
}

// newRatesSnapshot is the one constructor of a rates snapshot. It takes
// ownership of rates (callers pass a clone).
func newRatesSnapshot(rates *graph.Rates, version uint64) *ratesSnapshot {
	alpha := rates.Vector()
	zeros := make([]uint64, (len(alpha)+63)/64)
	for t, a := range alpha {
		if a == 0 {
			zeros[t>>6] |= 1 << (t & 63)
		}
	}
	return &ratesSnapshot{rates: rates, alpha: alpha, version: version, key: graph.RateVectorKey(alpha), zeros: zeros}
}

// plan returns the snapshot's coefficient plan for direction dir of gn
// (0 authority, 1 hub; c is that direction's corpus view), building it
// if this is the first call; built reports that this call did, in took.
func (s *ratesSnapshot) plan(gn *generation, c *Corpus, dir int) (plan *rank.Plan, built bool, took time.Duration) {
	p := &s.plans[dir]
	p.once.Do(func() {
		t0 := time.Now()
		src := &gn.planSources[dir]
		src.once.Do(func() { src.to = rank.PlanSources(c.g) })
		p.plan = rank.NewPlan(c.g, s.alpha, c.nopts.Damping, src.to)
		built, took = true, time.Since(t0)
	})
	return p.plan, built, took
}

// generation is one immutable corpus identity inside an Engine: the
// corpus itself, its monotonically increasing generation number, and
// the per-generation cache of the global PageRank warm-start vector.
// A generation is shared by every rates snapshot published while it is
// current — SetRates keeps the generation, SwapCorpus replaces it.
type generation struct {
	corpus *Corpus
	num    uint64

	// global caches the PageRank vector used to warm-start initial
	// queries (Section 6.2), computed on first use under the rates in
	// force at that moment and kept for the generation's lifetime.
	globalOnce sync.Once
	global     []float64

	// hub caches the direction-reversed corpus view serving hub-mode
	// (CheiRank) solves, built on first hub-mode touch and kept for the
	// generation's lifetime; hubGlobal is the reversed-direction PageRank
	// warm start, mirroring global's compute-once contract. See mode.go.
	hubOnce sync.Once
	hub     *Corpus

	hubGlobalOnce sync.Once
	hubGlobal     []float64

	// explainScratch pools the |V|-sized scratch of the explain kernel
	// (explain.go). topologies keeps the explaining subgraphs'
	// topologies for reuse under later rates, and balls the targets'
	// balls every other base set's topology is derived from
	// (topology.go); topologyBuilds counts the balls explains built to
	// completion, kept or not.
	explainScratch sync.Pool
	topologies     *lru.Sharded
	balls          *lru.Sharded
	topologyBuilds atomic.Int64

	// planSources is the rate-independent column of the generation's
	// coefficient plans per direction (authority, hub), shared by every
	// rates snapshot's plan; see ratesSnapshot.plan.
	planSources [2]struct {
		once sync.Once
		to   []int32
	}
}

// newGeneration is generation num of corpus c, with empty topology
// tiers.
func newGeneration(c *Corpus, num uint64) *generation {
	return &generation{corpus: c, num: num, topologies: newTopologyMemo(c), balls: newTopologyMemo(c)}
}

// globalScores returns the generation's warm-start vector, computing
// it on first use under snap's rates.
func (gn *generation) globalScores(snap *ratesSnapshot) []float64 {
	gn.globalOnce.Do(func() {
		gn.global = rank.PageRank(gn.corpus.g, snap.rates, gn.corpus.opts).Scores
	})
	return gn.global
}

// engineState is the one atomically published word of engine identity:
// a (generation, rates snapshot) pair. Every read path loads it once
// at entry; SetRates/TrySetRates publish a new state with the same
// generation, SwapCorpus publishes one with a fresh generation. Pin
// captures a whole state, so a pinned view is consistent across BOTH
// axes — rates version and corpus generation.
type engineState struct {
	gen  *generation
	snap *ratesSnapshot
}

// globalScores is the state-consistent warm-start vector: sized for
// THIS state's graph, never a concurrently swapped-in one.
func (st *engineState) globalScores() []float64 {
	return st.gen.globalScores(st.snap)
}

// Engine ties an atomically swapped (corpus generation, rates
// snapshot) pair into an ObjectRank2 query processor.
//
// Concurrency model: every read goes through a Pinned view, which loads
// the current engineState once (Pin) and never looks again, so reads
// are safe under full concurrency with both
// SetRates/TrySetRates (which publish a new rates snapshot under the
// same generation) and SwapCorpus (which publishes a whole new corpus
// generation). All publications go through compare-and-swap on one
// pointer; there are no locks anywhere on the serving path. In-flight
// operations — including detached cache flights — finish on the
// generation they pinned. Hold one Pinned view across a multi-step
// operation (solve → explain → reformulate) so all steps see the same
// rates AND the same graph.
type Engine struct {
	state atomic.Pointer[engineState]

	// swapHook, when set, is invoked after every successful corpus swap
	// with the replaced and new generation numbers; see SetSwapHook.
	swapHook atomic.Pointer[func(oldGeneration, newGeneration uint64)]

	// solveHook, when set, is invoked after every completed kernel
	// execution on the ObjectRank2 path with that solve's SolveStats.
	// The observability layer subscribes here to drive its kernel-solve
	// counters and iterations-to-convergence histogram; see
	// SetSolveHook.
	solveHook atomic.Pointer[func(SolveStats)]
}

// SolveStats describes one completed kernel execution of Pinned.Solve —
// every ranking in the system, including the solves the serving cache
// and the profile tier issue.
type SolveStats struct {
	// Iterations is the sweep count of the execution (the slowest
	// column's); Converged reports that every column converged.
	Iterations int
	Converged  bool
	// WarmStarted reports that a column began from a caller-donated
	// Init vector that was actually used (§6.2 warm start). The global
	// PageRank default start does not count, and neither does a
	// donation dropped for its length.
	WarmStarted bool
	// BaseSet is the size of the weighted base set |S(Q)|, summed over
	// the execution's columns.
	BaseSet int
	// BaseSetDur and SolveDur are the wall-clock durations of the
	// base-set/IR-scoring stage (summed over columns) and the kernel
	// iteration stage.
	BaseSetDur time.Duration
	SolveDur   time.Duration
	// Columns is the number of base sets the kernel execution advanced:
	// 1 for a single query, up to DefaultBlockSize for one group of a
	// batch. afq_kernel_solves_total counts EXECUTIONS (hook firings),
	// so a 16-query batch contributes 2 solves / 16 columns.
	Columns int
	// Mode is the direction solved (ModeAuthority or ModeHub).
	Mode Mode
	// PlanBuilt reports that this execution built its snapshot's
	// coefficient plan, in PlanBuildDur (inside SolveDur); a multi-column
	// execution that found the plan built, and every one-column
	// execution, leaves both zero.
	PlanBuilt    bool
	PlanBuildDur time.Duration
	// Ctx is the context the solve ran under, so a hook can attribute the
	// execution to the request that asked for it.
	Ctx context.Context
}

// SetSolveHook registers f to be called after every completed kernel
// execution with that solve's statistics. At most one hook is held; a
// nil f removes it. The hook runs synchronously on the solving
// goroutine, so concurrent solves invoke it concurrently — it must be
// safe for concurrent use and should be cheap (a few atomic updates).
// Degenerate executions that never enter the kernel (an empty base
// set) do not fire the hook.
func (e *Engine) SetSolveHook(f func(SolveStats)) {
	if f == nil {
		e.solveHook.Store(nil)
		return
	}
	e.solveHook.Store(&f)
}

func (e *Engine) notifySolve(st SolveStats) {
	if h := e.solveHook.Load(); h != nil {
		(*h)(st)
	}
}

// SetSwapHook registers f to be called after every successful
// SwapCorpus with the replaced and new generation numbers. At most one
// hook is held; a nil f removes it. The hook runs synchronously on the
// swapping goroutine AFTER the compare-and-swap (so it observes the
// new generation through the engine's normal read paths).
func (e *Engine) SetSwapHook(f func(oldGeneration, newGeneration uint64)) {
	if f == nil {
		e.swapHook.Store(nil)
		return
	}
	e.swapHook.Store(&f)
}

func (e *Engine) notifySwap(oldGeneration, newGeneration uint64) {
	if h := e.swapHook.Load(); h != nil {
		(*h)(oldGeneration, newGeneration)
	}
}

// ErrRatesConflict is returned by TrySetRates when the engine's rates
// were replaced concurrently: the caller's version token no longer
// names the current snapshot. HTTP layers map it to 409 Conflict.
var ErrRatesConflict = errors.New("core: rates were changed concurrently (version conflict)")

// ErrGenerationConflict is returned by SwapCorpus when the engine's
// corpus was swapped concurrently: the caller's generation token no
// longer names the current generation. HTTP layers map it to 409
// Conflict, exactly like ErrRatesConflict.
var ErrGenerationConflict = errors.New("core: corpus was swapped concurrently (generation conflict)")

// NewEngine indexes the text of every node of g and returns an engine
// using the given authority transfer rates. The rates are cloned; later
// external mutation does not affect the engine.
func NewEngine(g *graph.Graph, rates *graph.Rates, cfg Config) (*Engine, error) {
	return NewEngineWith(NewCorpus(g, cfg), rates)
}

// NewEngineWith returns an engine over an existing (possibly shared)
// corpus with the given initial authority transfer rates (cloned).
// The engine starts at generation 1, rates version 1.
func NewEngineWith(c *Corpus, rates *graph.Rates) (*Engine, error) {
	if err := validateRates(c.g, rates); err != nil {
		return nil, err
	}
	e := &Engine{}
	e.state.Store(&engineState{
		gen:  newGeneration(c, 1),
		snap: newRatesSnapshot(rates.Clone(), 1),
	})
	return e, nil
}

func validateRates(g *graph.Graph, r *graph.Rates) error {
	if r.Schema() != g.Schema() {
		return fmt.Errorf("core: rates defined over a different schema than the graph")
	}
	if err := r.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Corpus returns the engine's current immutable substrate. In a
// multi-step flow, prefer Pin: two Corpus calls may straddle a swap.
func (e *Engine) Corpus() *Corpus { return e.state.Load().gen.corpus }

// Graph returns the engine's current data graph.
func (e *Engine) Graph() *graph.Graph { return e.Corpus().g }

// Index returns the engine's current inverted index.
func (e *Engine) Index() *ir.Index { return e.Corpus().ix }

// Rates returns a copy of the current authority transfer rates.
func (e *Engine) Rates() *graph.Rates { return e.state.Load().snap.rates.Clone() }

// RatesVersion returns the version of the currently published rates
// snapshot. Versions start at 1 and increase by one per successful
// SetRates/TrySetRates/SwapCorpus — monotonically across corpus swaps,
// never resetting, so a version token uniquely names one published
// rates identity for the engine's whole lifetime. They are the
// optimistic-concurrency token of the reformulation API.
func (e *Engine) RatesVersion() uint64 { return e.state.Load().snap.version }

// Generation returns the current corpus generation number. Generations
// start at 1 and increase by one per successful SwapCorpus; they are
// the optimistic-concurrency token of the corpus-swap API.
func (e *Engine) Generation() uint64 { return e.state.Load().gen.num }

// SetRates replaces the authority transfer rates (cloned) by publishing
// a fresh snapshot, unconditionally (last writer wins). Used after a
// structure-based reformulation. Safe under full concurrency with every
// read path; in-flight operations keep the state they started with.
// The corpus generation is preserved — rates are validated against the
// generation current at each CAS attempt, so a SetRates racing a
// SwapCorpus fails cleanly if the new generation has a different
// schema rather than publishing rates the new graph cannot interpret.
func (e *Engine) SetRates(r *graph.Rates) error {
	clone := r.Clone()
	for {
		old := e.state.Load()
		if err := validateRates(old.gen.corpus.g, clone); err != nil {
			return err
		}
		next := &engineState{gen: old.gen, snap: newRatesSnapshot(clone, old.snap.version+1)}
		if e.state.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// TrySetRates publishes new rates only if the current snapshot still
// carries the given version — the optimistic-concurrency write of a
// reformulation computed against that snapshot. On success it returns
// the new version; if another writer got there first it returns the
// winning snapshot's version alongside ErrRatesConflict, and the caller
// should re-run its reformulation against fresh state (or surface 409).
// A corpus swap also advances the rates version, so a token pinned
// before a swap conflicts here — by design: a reformulation computed
// against the old graph must not be published onto the new one, and
// the conflict is reported before the rates are checked against the
// new graph.
func (e *Engine) TrySetRates(r *graph.Rates, ifVersion uint64) (uint64, error) {
	old := e.state.Load()
	if old.snap.version != ifVersion {
		return old.snap.version, ErrRatesConflict
	}
	if err := validateRates(old.gen.corpus.g, r); err != nil {
		return old.snap.version, err
	}
	next := &engineState{gen: old.gen, snap: newRatesSnapshot(r.Clone(), old.snap.version+1)}
	if !e.state.CompareAndSwap(old, next) {
		return e.state.Load().snap.version, ErrRatesConflict
	}
	return next.snap.version, nil
}

// SwapCorpus publishes a whole new corpus generation — graph, index
// and initial rates (cloned) — only if the current generation still
// carries the given number: the CAS mirror of TrySetRates on the
// generation axis. On success it returns the new generation number;
// if another swapper got there first it returns the winning generation
// alongside ErrGenerationConflict. The rates version advances by one
// (monotonically — version tokens never repeat across generations), so
// version-keyed caches and in-flight reformulation tokens invalidate
// implicitly. In-flight queries and detached cache flights finish on
// the generation they pinned; nothing blocks. After the CAS the swap
// hook fires.
func (e *Engine) SwapCorpus(c *Corpus, r *graph.Rates, ifGeneration uint64) (uint64, error) {
	if err := validateRates(c.g, r); err != nil {
		return e.Generation(), err
	}
	old := e.state.Load()
	if old.gen.num != ifGeneration {
		return old.gen.num, ErrGenerationConflict
	}
	next := &engineState{
		gen:  newGeneration(c, old.gen.num+1),
		snap: newRatesSnapshot(r.Clone(), old.snap.version+1),
	}
	if !e.state.CompareAndSwap(old, next) {
		return e.state.Load().gen.num, ErrGenerationConflict
	}
	e.notifySwap(old.gen.num, next.gen.num)
	return next.gen.num, nil
}

// Options returns the rank options in effect (as configured).
func (e *Engine) Options() rank.Options { return e.Corpus().opts }

// baseSetOf computes the weighted query base set S(Q) over one corpus:
// every node containing at least one query keyword, scored by
// IRScore(v, Q) (Equation 2) and normalized to sum to 1 so the scores
// act as random-jump probabilities. This is the defining difference
// between ObjectRank2 and the original 0/1 ObjectRank. mass is the sum
// the scores were divided by.
func baseSetOf(c *Corpus, q *ir.Query) (base []ir.ScoredDoc, mass float64) {
	base = c.ix.BaseSet(q)
	for _, sd := range base {
		mass += sd.Score
	}
	if mass > 0 {
		for i := range base {
			base[i].Score /= mass
		}
	}
	return base, mass
}

// BaseSet computes the weighted query base set S(Q) over the current
// corpus; see baseSetOf.
func (e *Engine) BaseSet(q *ir.Query) []ir.ScoredDoc {
	base, _ := baseSetOf(e.Corpus(), q)
	return base
}

// RankResult is the outcome of one ObjectRank2 execution.
type RankResult struct {
	// Query is the (possibly reformulated) query vector that was run.
	Query *ir.Query
	// Scores holds the converged ObjectRank2 score r^Q(v) per node.
	// When the result is no longer needed, Engine.Release returns the
	// vector to the engine's buffer pool; after that the result must
	// not be read again.
	Scores []float64
	// Shared reports that Scores is a vector a cache keeps and hands to
	// every reader instead of a copy: it is read-only, and Release
	// leaves it out of the pool.
	Shared bool
	// Base is the normalized weighted base set used for random jumps.
	Base []ir.ScoredDoc
	// BaseMass is Σ IRScore(v, Q) over Base before it was normalized
	// (Equation 2's total), as Solve computed it: by fixpoint linearity a
	// multi-keyword ranking is Σ_t γ_t·r_t over its terms' rankings with
	// γ_t proportional to the term's BaseMass at its query weight.
	BaseMass float64
	// Iterations and Converged report the power-iteration behaviour;
	// iteration counts are the warm-start metric of Figures 14b–17b.
	Iterations int
	Converged  bool
	// RatesVersion is the version of the rates snapshot the execution
	// ran under — the optimistic-concurrency token to present when
	// publishing a reformulation derived from this result.
	RatesVersion uint64
	// Generation is the corpus generation the execution ran under.
	// Scores is sized for THAT generation's graph; consumers rendering
	// node IDs must use the same generation's graph, which is what a
	// Pinned view guarantees.
	Generation uint64
	// BaseSetDur and SolveDur are the wall-clock stage timings of the
	// execution (IR scoring vs kernel iteration) — the per-request
	// trace's span durations. SolveDur is this column's own run, also
	// when it was solved with others (their group's wall time is
	// SolveStats.SolveDur). Zero for results that did not run the kernel
	// (empty base set, cache hits reconstructed from stored vectors).
	BaseSetDur time.Duration
	SolveDur   time.Duration
}

// TopK returns the k best nodes by ObjectRank2 score.
func (r *RankResult) TopK(k int) []rank.Ranked { return rank.TopK(r.Scores, k) }

// TopKOfType returns the k best nodes of one node type.
func (r *RankResult) TopKOfType(g *graph.Graph, t graph.TypeID, k int) []rank.Ranked {
	return rank.TopKOfType(g, r.Scores, t, k)
}

// InBase reports whether v is in the result's base set.
func (r *RankResult) InBase(v graph.NodeID) bool {
	for _, sd := range r.Base {
		if graph.NodeID(sd.Doc) == v {
			return true
		}
	}
	return false
}

// Release returns a result's score vector to the engine's buffer pool,
// closing the zero-allocation serving loop — unless the vector is
// Shared, which stays with the cache that keeps it. The result's Scores
// must not be touched afterwards (TopK included). Optional: results that
// are never released are simply collected by the GC.
func (e *Engine) Release(res *RankResult) {
	if res == nil || res.Scores == nil {
		return
	}
	if !res.Shared {
		// Releasing into the CURRENT corpus's pool is safe even when the
		// result came from an earlier generation: BufferPool.Get re-checks
		// capacity and allocates fresh on a size mismatch.
		e.Corpus().pool.Put(res.Scores)
	}
	res.Scores = nil
}

// GlobalRank returns the query-independent PageRank over the current
// generation's authority transfer data graph, computed once per
// generation (under the rates in force at first use) and cached. It is
// only ever used as a warm-start vector — the fixpoint a query
// converges to does not depend on it — so it is deliberately NOT
// invalidated by rate changes, matching the paper's protocol of
// global-initializing only the initial user query. A corpus swap DOES
// reset it: the new generation's graph has different nodes, so its
// warm-start vector is recomputed on first use.
func (e *Engine) GlobalRank() []float64 {
	s := e.state.Load().globalScores()
	out := make([]float64, len(s))
	copy(out, s)
	return out
}

// ObjectRankBaseline runs the modified original ObjectRank of
// Equation 16 (0/1 per-keyword base sets combined with normalizing
// exponents) for comparison surveys such as Table 2.
func (e *Engine) ObjectRankBaseline(q *ir.Query) *RankResult {
	st := e.state.Load()
	c, snap := st.gen.corpus, st.snap
	var baseSets [][]graph.NodeID
	for _, t := range q.Terms() {
		single := ir.NewQuery(t)
		var bs []graph.NodeID
		for _, sd := range c.ix.BaseSet(single) {
			bs = append(bs, graph.NodeID(sd.Doc))
		}
		baseSets = append(baseSets, bs)
	}
	res := rank.ObjectRankMulti(c.g, snap.rates, baseSets, c.opts)
	return &RankResult{
		Query:        q,
		Scores:       res.Scores,
		Iterations:   res.Iterations,
		Converged:    res.Converged,
		RatesVersion: snap.version,
		Generation:   st.gen.num,
	}
}

// Pinned is a consistent read-only view of the engine at one
// (generation, ratesVersion) pair. Every operation on a Pinned view —
// ranking, explaining, reformulating, rendering node IDs through
// Corpus — uses the corpus AND rates captured at Pin time, regardless
// of concurrent SetRates or SwapCorpus calls, so multi-step flows
// (rank → explain → reformulate → publish) compose without locks:
// compute against the pin, then publish with TrySetRates(rates,
// pin.Version()) and retry on conflict. A pin taken before a corpus
// swap keeps the old generation's graph and index alive until the pin
// is dropped; nothing it returns can mix generations.
type Pinned struct {
	e  *Engine
	st *engineState
}

// Pin captures the current (generation, rates snapshot) pair.
func (e *Engine) Pin() *Pinned { return &Pinned{e: e, st: e.state.Load()} }

// Version returns the pinned snapshot's rates version token.
func (p *Pinned) Version() uint64 { return p.st.snap.version }

// Generation returns the pinned corpus generation number.
func (p *Pinned) Generation() uint64 { return p.st.gen.num }

// Corpus returns the pinned generation's corpus: the graph and index
// every result of this view is sized for.
func (p *Pinned) Corpus() *Corpus { return p.st.gen.corpus }

// Rates returns a copy of the pinned rates.
func (p *Pinned) Rates() *graph.Rates { return p.st.snap.rates.Clone() }

// RatesKey returns the graph.RateVectorKey fingerprint of the pinned
// rate vector, computed once when the snapshot was built. With
// Generation it is the identity every cache keys on: two pins with
// equal (Generation, RatesKey) rank identically, whatever their version
// tokens say.
func (p *Pinned) RatesKey() uint64 { return p.st.snap.key }

// Engine returns the engine the view was pinned from.
func (p *Pinned) Engine() *Engine { return p.e }

// BaseSet computes the weighted query base set S(Q) over the pinned
// generation's index; see Engine.BaseSet.
func (p *Pinned) BaseSet(q *ir.Query) []ir.ScoredDoc {
	base, _ := baseSetOf(p.st.gen.corpus, q)
	return base
}

// Combine returns rank.Combine(w, vs) — Σ w_i·vs_i over vectors sized
// for the pinned graph — in a vector drawn from the engine's buffer
// pool, the pool every solved result's Scores comes from: hand it back
// with Release (as a RankResult's Scores) when it has been read.
func (p *Pinned) Combine(w []float64, vs [][]float64) []float64 {
	c := p.st.gen.corpus
	return rank.Combine(c.pool.Get(c.g.NumNodes()), w, vs)
}

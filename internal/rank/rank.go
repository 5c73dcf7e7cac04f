// Package rank implements the authority-flow fixpoint computations the
// paper builds on: the damped power iteration shared by PageRank,
// ObjectRank and ObjectRank2 (Equation 4), global PageRank, the
// original 0/1-base-set ObjectRank of [BHP04], and the modified
// multi-keyword ObjectRank with normalizing exponents (Equation 16)
// used as the Table 2 baseline.
package rank

import (
	"context"
	"math"
	"sort"
	"time"

	"authorityflow/internal/graph"
)

// Options control a power-iteration run.
//
// Zero-value semantics: a zero Damping, Threshold or MaxIters means
// "use the paper default" (0.85, 0.002, 200), applied by Normalized()
// at every kernel entry. To request an ACTUAL zero — damping 0 (scores
// equal the base distribution), threshold 0 (never stop early), or
// zero iterations (scores equal the start vector) — use the explicit
// sentinels ZeroDamping, ZeroThreshold and ZeroIters. Earlier versions
// silently conflated "unset" with "zero", which made Damping: 0
// impossible to express; the sentinels close that gap without breaking
// the zero value's use-the-defaults convenience.
type Options struct {
	// Damping is the probability d of following an edge rather than
	// jumping back to the base set. The paper uses 0.85. Zero means the
	// default; ZeroDamping (any negative value) means an actual 0.
	Damping float64
	// Threshold is the L1 convergence threshold on successive score
	// vectors. The paper's performance experiments use 0.002. Zero
	// means the default; ZeroThreshold (any negative value) disables
	// early stopping so the run always executes MaxIters iterations.
	Threshold float64
	// MaxIters bounds the number of iterations. Zero means the default
	// (200); ZeroIters (any negative value) means run no iterations at
	// all, leaving the scores at the start vector.
	MaxIters int
	// Init, if non-nil, is the starting score vector: the warm-start
	// mechanism of Section 6.2, where a reformulated query starts from
	// the previous query's converged scores. Its length should equal
	// the graph's node count; a mismatched vector — the signature of a
	// warm start donated across a concurrent corpus swap — is DROPPED
	// and the run degrades to a cold start with Result.InitDropped set,
	// exactly the fallback core.Engine applies at its own boundary.
	// (Earlier kernels panicked here, which let a swap race turn a term
	// solve into a serving-goroutine crash; a stale warm start is
	// recoverable by construction — the fixpoint does not depend on the
	// start vector.)
	Init []float64
	// Observe, if non-nil, is invoked by the kernel after EVERY
	// completed power iteration with the 1-based iteration index and
	// that iteration's L1 residual (the convergence quantity compared
	// against Threshold), so observability layers can audit where a
	// solve spends its effort — the per-solve behaviour behind the
	// paper's §6.2 warm-start claims. The last call's index equals the
	// run's final Result.Iterations.
	//
	// Contract: the nil path is guaranteed allocation-free and costs
	// one branch per iteration, so serving with observation disabled is
	// indistinguishable from a kernel without the hook (enforced by
	// TestIterateDisabledObserverZeroAlloc). A non-nil observer runs on
	// the goroutine of its own solve; concurrent solves call their
	// observers concurrently, so a shared observer must be safe for
	// concurrent use. Observers must not retain or mutate kernel state.
	Observe IterObserver
	// Ctx, if non-nil, makes the run cancellable: the kernel checks
	// ctx.Err() exactly once per sweep, BEFORE starting the next
	// iteration. On cancellation the run stops with Result.Err set to
	// the context's error and Result.Scores holding the last fully
	// completed iteration's vector — a sweep is never published
	// half-written, so a cancelled run's scores are always a consistent
	// (just unconverged) fixpoint state. A nil Ctx means the run cannot
	// be cancelled and costs one branch per iteration (the serving
	// default before PR 4).
	//
	// Contract: whether Ctx is nil, context.Background(), or a live
	// cancellable context, the happy path (no cancellation) allocates
	// the same small per-run constant — ctx.Err() on the stdlib
	// context types does not allocate. Enforced by
	// TestIterateContextZeroAlloc. A context is deliberately carried in
	// Options next to Init and Observe: all three are per-run state of
	// one kernel execution, and threading a parameter through every
	// ranking-mode wrapper would force a signature break for the same
	// effect.
	Ctx context.Context
}

// IterObserver receives one callback per completed power iteration:
// the 1-based iteration index and the iteration's L1 residual
// Σ|next[v]−cur[v]|. See Options.Observe for the concurrency and
// allocation contract.
type IterObserver func(iter int, residual float64)

// Explicit-zero sentinels for Options fields whose natural zero value
// is reserved for "use the paper default". Any negative value is
// treated identically; these names exist so intent is grep-able.
const (
	// ZeroDamping requests damping factor 0: no authority propagates,
	// the fixpoint equals the base distribution.
	ZeroDamping float64 = -1
	// ZeroThreshold requests convergence threshold 0: the L1 early-stop
	// never fires and the run executes exactly MaxIters iterations
	// (Converged stays false).
	ZeroThreshold float64 = -1
	// ZeroIters requests zero iterations: the result's scores are the
	// start vector (Init if given, else the base distribution),
	// Iterations is 0 and Converged is false.
	ZeroIters int = -1
)

// Defaults returns the paper's standard options: d = 0.85, threshold
// 0.002, at most 200 iterations.
func Defaults() Options {
	return Options{Damping: 0.85, Threshold: 0.002, MaxIters: 200}
}

// Normalized resolves the zero-value/sentinel convention into literal
// field values: zero fields become the paper defaults, negative
// (sentinel) fields become actual zeros. The result is idempotent under
// further Normalized calls and is what every kernel entry point applies
// to its options before running. Init, Observe and Ctx pass through
// untouched.
func (o Options) Normalized() Options {
	switch {
	case o.Damping == 0:
		o.Damping = 0.85
	case o.Damping < 0:
		o.Damping = 0
	}
	switch {
	case o.Threshold == 0:
		o.Threshold = 0.002
	case o.Threshold < 0:
		o.Threshold = 0
	}
	switch {
	case o.MaxIters == 0:
		o.MaxIters = 200
	case o.MaxIters < 0:
		o.MaxIters = 0
	}
	return o
}

// Result is the outcome of a power-iteration run.
type Result struct {
	// Scores holds the converged authority score of every node.
	Scores []float64
	// Iterations is the number of iterations executed. The warm-start
	// experiments (Figures 14b–17b) track this count.
	Iterations int
	// Converged reports whether the L1 threshold was reached before
	// MaxIters.
	Converged bool
	// Err is non-nil iff the run was stopped early by Options.Ctx
	// (context.Canceled or context.DeadlineExceeded). Scores then hold
	// the last fully completed iteration's vector (or the start vector
	// when cancellation was observed before the first sweep) and
	// Converged is false. Callers that own a buffer pool should still
	// ReleaseTo the scores of a cancelled run.
	Err error
	// InitDropped reports that Options.Init was discarded because its
	// length did not match the graph — a stale warm start from a
	// rebuilt graph — and the run started cold instead. The scores are
	// a complete, correct solve; the flag exists so callers can count
	// how often donated warm starts go stale.
	InitDropped bool
	// Dur is the wall-clock time of this column's own run, start vector
	// to exit — not of the Iterate call, which for a column solved with
	// others also covers theirs.
	Dur time.Duration
}

// NormalizeDist scales a non-negative vector in place so it sums to 1.
// A zero vector is left unchanged. Returns the same slice.
func NormalizeDist(v []float64) []float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if sum == 0 {
		return v
	}
	for i := range v {
		v[i] /= sum
	}
	return v
}

// PageRank computes the global PageRank of the graph: the fixpoint with
// a uniform random-jump distribution over all nodes. The paper uses
// global ObjectRank values (equivalently, PageRank over the authority
// transfer data graph) to warm-start the first query (Section 6.2).
// Like ObjectRank and ObjectRankMulti it runs the kernel serially and
// unpooled, so its scores are bitwise deterministic.
func PageRank(g *graph.Graph, rates *graph.Rates, opts Options) Result {
	n := g.NumNodes()
	base := make([]float64, n)
	if n == 0 {
		return Result{Scores: base, Converged: true}
	}
	u := 1 / float64(n)
	for i := range base {
		base[i] = u
	}
	return Iterate(g, rates.Vector(), [][]float64{base}, []Options{opts}, nil, nil)[0]
}

// ObjectRank computes the original [BHP04] ObjectRank for a base set
// with the 0/1 jump distribution: every base-set node receives jump
// probability 1/|S(Q)|.
func ObjectRank(g *graph.Graph, rates *graph.Rates, baseSet []graph.NodeID, opts Options) Result {
	n := g.NumNodes()
	base := make([]float64, n)
	if len(baseSet) > 0 {
		u := 1 / float64(len(baseSet))
		for _, v := range baseSet {
			base[v] = u
		}
	}
	return Iterate(g, rates.Vector(), [][]float64{base}, []Options{opts}, nil, nil)[0]
}

// ObjectRankMulti computes the modified multi-keyword ObjectRank of
// Equation 16: per-keyword ObjectRank scores are combined as
//
//	r(v) = prod_i r_ti(v)^g(ti),  g(t) = 1/log(|S(t)|)
//
// so that popular keywords (large base sets, hence skewed scores) do
// not dominate the conjunction. baseSets holds one 0/1 base set per
// keyword. The returned Result's Iterations is the sum over keywords.
func ObjectRankMulti(g *graph.Graph, rates *graph.Rates, baseSets [][]graph.NodeID, opts Options) Result {
	n := g.NumNodes()
	combined := make([]float64, n)
	for i := range combined {
		combined[i] = 1
	}
	total := Result{Scores: combined, Converged: true}
	for _, bs := range baseSets {
		r := ObjectRank(g, rates, bs, opts)
		total.Iterations += r.Iterations
		total.Converged = total.Converged && r.Converged
		exp := normalizingExponent(len(bs))
		for v := range combined {
			combined[v] *= math.Pow(r.Scores[v], exp)
		}
	}
	return total
}

// normalizingExponent returns g(t) = 1/log(|S(t)|), clamped to 1 for
// base sets too small for the logarithm to exceed 1.
//
// This deliberately DEVIATES from a literal reading of Equation 16 for
// |S(t)| <= 2 (and is undefined there in the paper): ln(0) and ln(1)
// make g infinite or divide by zero, and ln(2) ≈ 0.693 would give an
// exponent g ≈ 1.44 > 1, i.e. a rare keyword would have its (already
// < 1) scores shrunk MORE than a common one — the opposite of the
// normalization's stated purpose of damping popular keywords. Clamping
// to exponent 1 (use the raw score) keeps g monotonically
// non-increasing in base-set size and exactly matches the paper from
// |S(t)| = 3 (the first size with ln > 1) upward. Golden values for
// sizes 0..3 are pinned by TestNormalizingExponentGolden; the rationale
// is recorded in DESIGN.md §2.
func normalizingExponent(baseSize int) float64 {
	if baseSize <= 0 {
		return 1
	}
	l := math.Log(float64(baseSize))
	if l <= 1 {
		return 1
	}
	return 1 / l
}

// Ranked is one node with its authority score.
type Ranked struct {
	Node  graph.NodeID
	Score float64
}

// TopK returns the k highest-scoring nodes in descending score order
// (ties broken by ascending node ID, for determinism). Selection uses a
// bounded min-heap, O(n log k), so top-10 screens stay cheap on
// million-node graphs.
func TopK(scores []float64, k int) []Ranked {
	sel := newSelector(k)
	if sel == nil {
		return nil
	}
	for i, s := range scores {
		sel.offer(Ranked{Node: graph.NodeID(i), Score: s})
	}
	return sel.sorted()
}

// Combine sets dst to the linear combination Σ_i w[i]·vs[i] of score
// vectors and returns it: the one place the system blends converged
// fixpoints (a multi-keyword query from its terms' vectors, a
// personalized ranking from the query's vector and its profile's term
// vectors).
// The sum runs in argument order, dst[v] = w[0]·vs[0][v] first and then
// + w[i]·vs[i][v] for i = 1, 2, …, so equal arguments give equal bits.
// vs holds at least one vector, each at least len(dst) long.
func Combine(dst, w []float64, vs [][]float64) []float64 {
	w0, v0 := w[0], vs[0][:len(dst)]
	for i, s := range v0 {
		dst[i] = w0 * s
	}
	for j := 1; j < len(vs); j++ {
		wj, vj := w[j], vs[j][:len(dst)]
		for i, s := range vj {
			dst[i] += wj * s
		}
	}
	return dst
}

// TopKOfType returns the k highest-scoring nodes of one node type,
// which the paper's survey screens use to present only Paper results.
func TopKOfType(g *graph.Graph, scores []float64, t graph.TypeID, k int) []Ranked {
	sel := newSelector(k)
	if sel == nil {
		return nil
	}
	for i, s := range scores {
		if g.Label(graph.NodeID(i)) == t {
			sel.offer(Ranked{Node: graph.NodeID(i), Score: s})
		}
	}
	return sel.sorted()
}

// selector is a bounded min-heap keeping the k best Ranked entries
// under the (score desc, node asc) order.
type selector struct {
	k    int
	heap []Ranked // min-heap: heap[0] is the WORST kept entry
}

func newSelector(k int) *selector {
	if k <= 0 {
		return nil
	}
	return &selector{k: k, heap: make([]Ranked, 0, k)}
}

// worse reports whether a ranks below b in the final order.
func worse(a, b Ranked) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

func (s *selector) offer(r Ranked) {
	if len(s.heap) < s.k {
		s.heap = append(s.heap, r)
		s.up(len(s.heap) - 1)
		return
	}
	if worse(r, s.heap[0]) || r == s.heap[0] {
		return
	}
	s.heap[0] = r
	s.down(0)
}

func (s *selector) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(s.heap[i], s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *selector) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && worse(s.heap[l], s.heap[smallest]) {
			smallest = l
		}
		if r < n && worse(s.heap[r], s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}

// sorted drains the selector into descending final order.
func (s *selector) sorted() []Ranked {
	out := append([]Ranked(nil), s.heap...)
	sort.Slice(out, func(i, j int) bool { return worse(out[j], out[i]) })
	return out
}

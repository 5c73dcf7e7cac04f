// Package rank implements the authority-flow fixpoint the paper builds
// on: the damped power iteration shared by PageRank, ObjectRank and
// ObjectRank2 (Equation 4), which Iterate runs for one jump vector per
// call, with the top-k selection and vector blend every ranking reads
// its answer through. Iterate is its one solver and internal/core its
// one caller: every ranking, the original ObjectRank and
// topic-sensitive PageRank baselines included, is a core.Pinned.Solve
// column, and the global PageRank warm-start vector is one Iterate over
// a uniform jump.
package rank

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"authorityflow/internal/graph"
)

// Options control a power-iteration run.
//
// Zero-value semantics: a zero Damping, Threshold or MaxIters means
// "use the paper default" (0.85, 0.002, 200), applied by Normalized()
// at every kernel entry. To turn early stopping off or run no
// iterations at all, use the sentinels ZeroThreshold and ZeroIters,
// which the kernel reads literally: no residual is below a negative
// threshold, and no iteration index is at most a negative budget.
type Options struct {
	// Damping is the probability d of following an edge rather than
	// jumping back to the base set. The paper uses 0.85. Zero means the
	// default; the kernel panics on any value outside [0, 1).
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

// Sentinels for Options fields whose natural zero value is reserved
// for "use the paper default". Any negative value is treated
// identically; these names exist so intent is grep-able.
const (
	// ZeroThreshold turns the L1 early stop off: the run executes
	// exactly MaxIters iterations (Converged stays false).
	ZeroThreshold float64 = -1
	// ZeroIters requests zero iterations: the result's scores are the
	// start vector (Init if given, else the base distribution),
	// Iterations is 0 and Converged is false.
	ZeroIters int = -1
)

// Normalized fills the zero fields with the paper defaults and leaves
// every other field as it is, sentinels included, so it is idempotent:
// o.Normalized().Normalized() equals o.Normalized(). It is what every
// kernel entry point applies to its options before running.
func (o Options) Normalized() Options {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Threshold == 0 {
		o.Threshold = 0.002
	}
	if o.MaxIters == 0 {
		o.MaxIters = 200
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
	// Dur is the wall-clock time of the run, start vector to exit.
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

// Ranked is one node with its authority score.
type Ranked struct {
	Node  graph.NodeID
	Score float64
}

// TopK returns the k highest-scoring nodes in compareRanked order:
// score descending, then ascending node ID. It is one pass of a Top
// over the scores, O(n log k), so top-10 screens stay cheap on
// million-node graphs.
func TopK(scores []float64, k int) []Ranked {
	if k <= 0 {
		return nil
	}
	top := NewTop(min(k, len(scores)), rankedScore, compareRanked)
	for i, s := range scores {
		if top.Admits(s) {
			top.Offer(Ranked{Node: graph.NodeID(i), Score: s})
		}
	}
	return top.Sorted()
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
	if k <= 0 {
		return nil
	}
	top := NewTop(min(k, len(scores)), rankedScore, compareRanked)
	for i, s := range scores {
		if top.Admits(s) && g.Label(graph.NodeID(i)) == t {
			top.Offer(Ranked{Node: graph.NodeID(i), Score: s})
		}
	}
	return top.Sorted()
}

// compareRanked is the order of every ranked result list: score
// descending (NaN last), then ascending node ID.
func compareRanked(a, b Ranked) int {
	return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Node, b.Node))
}

func rankedScore(r Ranked) float64 { return r.Score }

// Top keeps the k first items, under the strict total order cmp, of
// everything offered to it, in O(k) space: the one bounded selection
// behind every list the system shows (top-k results, explain and audit
// arcs, top paths, expansion terms, the profile panel and the cluster
// graph's neighbours). cmp's first criterion is key, descending, in
// cmp.Compare's order (NaN last); the rest of cmp breaks its ties. The
// result equals the k-long prefix of a full sort under cmp.
//
// Callers ask Admits(key) before they build an item. Once the heap is
// built, the bar is the key of the last kept item, cached as a float,
// so a rejected candidate costs one float comparison, with neither the
// item built nor cmp called. A key equal to the bar's is admitted, and Offer
// settles it with cmp.
//
// Offered items are only appended until one past the k-th arrives; the
// heap (the last kept item at its root) is built then, so a selection
// that keeps every candidate is one sort.
type Top[T any] struct {
	k      int
	key    func(T) float64
	cmp    func(a, b T) int
	items  []T     // once heaped, a heap ordered by cmp with the last item at the root
	heaped bool    // k items are kept and one more was offered
	bar    float64 // key(items[0]) once heaped, NaN before
}

// NewTop returns an empty selection of the k first items under cmp,
// whose first criterion is key descending. A k <= 0 keeps nothing.
func NewTop[T any](k int, key func(T) float64, cmp func(a, b T) int) *Top[T] {
	k = max(k, 0)
	return &Top[T]{k: k, key: key, cmp: cmp, items: make([]T, 0, k), bar: math.NaN()}
}

// Admits reports whether an item whose key is key can still be kept.
// false is final for that key: Offer would drop the item too.
func (t *Top[T]) Admits(key float64) bool { return !cmp.Less(key, t.bar) }

// Bar returns the key below which nothing is admitted: the key of the
// k-th kept item, or NaN, below which no key lies, until the heap is
// built. A caller holding an upper bound on a group of keys skips the
// group when the bound is below the bar.
func (t *Top[T]) Bar() float64 { return t.bar }

// Offer keeps x while fewer than k items are kept, and after that when
// x comes before the last kept item, which it evicts.
func (t *Top[T]) Offer(x T) {
	if len(t.items) < t.k {
		t.items = append(t.items, x)
		return
	}
	if t.k == 0 {
		return
	}
	if !t.heaped {
		for i := t.k/2 - 1; i >= 0; i-- {
			t.down(i)
		}
		t.heaped, t.bar = true, t.key(t.items[0])
	}
	if t.cmp(x, t.items[0]) >= 0 {
		return
	}
	t.items[0] = x
	t.down(0)
	t.bar = t.key(t.items[0])
}

// down sifts items[i] toward the leaves until no child comes after it.
func (t *Top[T]) down(i int) {
	n := len(t.items)
	for {
		last := i
		if l := 2*i + 1; l < n && t.cmp(t.items[l], t.items[last]) > 0 {
			last = l
		}
		if r := 2*i + 2; r < n && t.cmp(t.items[r], t.items[last]) > 0 {
			last = r
		}
		if last == i {
			return
		}
		t.items[i], t.items[last] = t.items[last], t.items[i]
		i = last
	}
}

// Sorted returns the kept items in cmp order, nil when there are none.
// It ends the selection; Reset starts the next one in the same buffer.
func (t *Top[T]) Sorted() []T {
	if len(t.items) == 0 {
		return nil
	}
	slices.SortFunc(t.items, t.cmp)
	return t.items
}

// Reset empties the selection, keeping its buffer: the slice Sorted
// returned is overwritten by the next selection.
func (t *Top[T]) Reset() {
	t.items, t.heaped, t.bar = t.items[:0], false, math.NaN()
}

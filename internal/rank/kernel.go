package rank

import (
	"fmt"
	"runtime"
	"sync"

	"authorityflow/internal/graph"
)

// BufferPool recycles score vectors across power-iteration runs so
// steady-state serving allocates (almost) nothing per query. It wraps a
// sync.Pool and is safe for concurrent use; the zero value is NOT
// usable — construct with NewBufferPool. All kernel entry points accept
// a nil pool, in which case buffers are plainly allocated and the
// garbage collector reclaims them as before.
//
// Buffers handed out by Get carry arbitrary stale contents; every
// kernel path fully overwrites them before reading.
type BufferPool struct {
	pool sync.Pool
}

// NewBufferPool returns an empty buffer pool.
func NewBufferPool() *BufferPool {
	return &BufferPool{pool: sync.Pool{New: func() any { return ([]float64)(nil) }}}
}

// Get returns a slice of length n, recycled when possible. Contents are
// undefined. Safe on a nil pool (plain allocation).
func (p *BufferPool) Get(n int) []float64 {
	if p == nil {
		return make([]float64, n)
	}
	buf := p.pool.Get().([]float64)
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// GetZeroed returns a zero-filled slice of length n.
func (p *BufferPool) GetZeroed(n int) []float64 {
	buf := p.Get(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Put returns a buffer for reuse. The caller must not touch buf
// afterwards. Safe on a nil pool (no-op).
func (p *BufferPool) Put(buf []float64) {
	if p == nil || buf == nil {
		return
	}
	p.pool.Put(buf) //nolint:staticcheck // slice headers are small; the backing array is what we recycle
}

// ReleaseTo hands the result's score vector back to a buffer pool and
// clears it, closing the zero-allocation loop of pooled serving: run →
// read scores → release. The caller must not retain r.Scores across the
// call. Safe on a nil pool (no-op, scores kept).
func (r *Result) ReleaseTo(p *BufferPool) {
	if p == nil || r.Scores == nil {
		return
	}
	p.Put(r.Scores)
	r.Scores = nil
}

// AutoWorkers returns the worker count used by "use all cores"
// requests: GOMAXPROCS at call time.
func AutoWorkers() int { return runtime.GOMAXPROCS(0) }

// Iterate is the one power-iteration driver every ranking mode in this
// package — and every solve in the system — reduces to. It advances B =
// len(bases) damped fixpoints ("columns")
//
//	r = d·A·r + (1−d)·base
//
// over the authority transfer data graph of g, where A's entries are
// the Equation 1 arc weights alpha[type]·InvDeg (alpha is indexed by
// TransferTypeID, as produced by Rates.Vector). The iteration uses the
// gather formulation over the graph's reverse CSR —
//
//	next[v] = (1−d)·base[v] + d · Σ over in-arcs (u→v) of alpha[t]·InvDeg(u,t)·cur[u]
//
// — so parallel workers own disjoint slices of next and never contend.
//
// Two sweep bodies sit under the one loop, selected by the input the
// driver observes: a single column runs sweep, the plain vector gather;
// two or more run sweepBlock over a flat [node*B + column] panel, so
// one pass over the arc arrays feeds B fixpoints and the inner loop
// reads B consecutive floats per source node. The panel body pays a
// per-arc loop over the live columns that a lone column should not
// (1.7× slower at B = 1 on the benchmark corpus), and eight columns
// through one panel beat eight single sweeps (1.3×); DESIGN.md §8 has
// the numbers and the workloads on each side.
//
// Per-column semantics:
//
//   - opts carries either one Options applied to every column or one
//     Options per column (len(opts) must be 1 or len(bases)); Damping,
//     Threshold, MaxIters, Init, Observe and Ctx are all honored per
//     column.
//   - Convergence is decided per column on that column's own L1
//     residual. A converged column is FROZEN: its lane is copied out
//     into its Result and no further sweep touches it, so its scores
//     are the iteration-k vector it would have reached alone. Live
//     columns keep sweeping until each converges, exhausts its
//     MaxIters, or its Ctx dies.
//   - Observe fires once per completed sweep per live column with that
//     column's residual, in column order, on the coordinating
//     goroutine.
//   - Ctx is polled once per sweep per live column on the coordinating
//     goroutine, before the sweep starts; a cancelled column freezes
//     with Result.Err set and its scores at the last fully completed
//     iteration (the start vector when cancellation was seen before the
//     first sweep). A sweep is never published half-written. The poll
//     is one branch plus one atomic read and allocates nothing.
//
// Bit-identity contract: column j's Result — scores, Iterations,
// Converged, the convergence decision itself — is the same at ANY B.
// Both bodies perform, per column, the same floating-point operations
// in the same order ((1−d)·base[v] first, then d·alpha[t]·InvDeg·cur[u]
// terms in (source, type) order, L1 accumulation in ascending node
// order), lanes never interact, and freezing removes a converged column
// from later sweeps exactly as a lone column's loop exit does. Because
// the reverse CSR is ordered by (source, type), the serial gather also
// accumulates each node's sum in the order the seed's scatter loop did,
// so workers <= 1 results are bit-identical to it. Enforced across
// damping/threshold/warm-start/cancel matrices by
// TestIteratePanelGoldenEquivalence.
//
// workers <= 1 sweeps inline on the calling goroutine and is bitwise
// deterministic; larger values fan static disjoint node ranges out over
// that many goroutines with one barrier per iteration (results then
// match serial up to floating-point summation order, and match each
// other bit for bit at equal worker counts, since per-worker partial
// residuals are combined in worker order).
//
// The returned slice has one Result per base set, in order; each
// Result.Scores comes from pool (when non-nil) and can be recycled with
// Result.ReleaseTo. The iteration loop itself allocates nothing: the
// per-run allocations are a small constant independent of the sweep
// count, with or without Observe and Ctx.
//
// Iterate panics on malformed inputs — a base vector whose length
// differs from g.NumNodes(), an alpha vector that does not cover the
// schema's transfer types, a len(opts) that is neither 1 nor
// len(bases) — because silently truncating them turns caller bugs into
// quietly wrong rankings. A mismatched Init vector is the one
// deliberate exception: it is the signature of a warm start donated
// across a concurrent corpus swap (a timing race, not a logic bug), it
// is recoverable by construction (the fixpoint does not depend on the
// start vector), and so that column degrades to a cold start with
// Result.InitDropped set instead of panicking a serving goroutine.
func Iterate(g *graph.Graph, alpha []float64, bases [][]float64, opts []Options, workers int, pool *BufferPool) []Result {
	B := len(bases)
	if B == 0 {
		return nil
	}
	n := g.NumNodes()
	if len(alpha) < g.Schema().NumTransferTypes() {
		panic(fmt.Sprintf("rank: alpha vector has %d entries, schema has %d transfer types", len(alpha), g.Schema().NumTransferTypes()))
	}
	if len(opts) != 1 && len(opts) != B {
		panic(fmt.Sprintf("rank: Iterate got %d option sets for %d base sets (want 1 or %d)", len(opts), B, B))
	}
	results := make([]Result, B)
	col := make([]Options, B) // normalized per-column options
	k := &kernel{B: B, alpha: alpha, bases: bases, d: make([]float64, B), omd: make([]float64, B)}
	k.start, k.arcs = g.ReverseCSR()
	for j := 0; j < B; j++ {
		o := opts[0]
		if len(opts) == B {
			o = opts[j]
		}
		if len(bases[j]) != n {
			panic(fmt.Sprintf("rank: base distribution %d has %d entries for a %d-node graph", j, len(bases[j]), n))
		}
		if o.Init != nil && len(o.Init) != n {
			o.Init = nil
			results[j].InitDropped = true
		}
		col[j] = o.Normalized()
		k.d[j] = col[j].Damping
		k.omd[j] = 1 - col[j].Damping
	}

	// Working panels, [node*B + column]; at B = 1 a panel IS a vector.
	cur := pool.Get(n * B)
	next := pool.Get(n * B)
	for v := 0; v < n; v++ {
		row := v * B
		for j := 0; j < B; j++ {
			if col[j].Init != nil {
				cur[row+j] = col[j].Init[v]
			} else {
				cur[row+j] = bases[j][v]
			}
		}
	}

	// active holds the indices of columns still iterating, in ascending
	// order (preserved by the in-place removal in freeze, so Observe
	// callbacks per sweep fire in column order).
	active := make([]int, B)
	for j := range active {
		active[j] = j
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// Static disjoint node ranges per worker. Workers write only their
	// own slice of next and their own row of partial residuals, and read
	// cur/bases/CSR, all frozen within an iteration — no locks needed.
	k.bounds = make([]int, workers+1)
	for w := range k.bounds {
		k.bounds[w] = w * n / workers
	}
	k.partial = make([]float64, workers*B)

	// freeze hands column j its scores — the lane of *panel, or at B = 1
	// the panel itself, which is then not recycled — and removes j from
	// the active set.
	freeze := func(j int, panel *[]float64) {
		if B == 1 {
			results[0].Scores, *panel = *panel, nil
		} else {
			out := pool.Get(n)
			for v := 0; v < n; v++ {
				out[v] = (*panel)[v*B+j]
			}
			results[j].Scores = out
		}
		for i, a := range active {
			if a == j {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}

	for it := 0; len(active) > 0; it++ {
		// Gate: a column out of iteration budget freezes as unconverged;
		// one whose ctx died freezes with the error and the last
		// completed iteration's scores. Descending, because freeze
		// removes from active.
		for i := len(active) - 1; i >= 0; i-- {
			j := active[i]
			if it >= col[j].MaxIters {
				freeze(j, &cur)
			} else if ctx := col[j].Ctx; ctx != nil {
				if err := ctx.Err(); err != nil {
					results[j].Err = err
					freeze(j, &cur)
				}
			}
		}
		if len(active) == 0 {
			break
		}

		// One sweep over every live column.
		if workers == 1 {
			k.sweepRange(0, cur, next, active)
		} else {
			k.wg.Add(workers)
			for w := 0; w < workers; w++ {
				go k.sweepWorker(w, cur, next, active)
			}
			k.wg.Wait()
		}

		// Fold the per-worker partial residuals in worker order, then
		// report and decide per column, ascending; a frozen column
		// leaves active, so i advances only past columns that stay.
		for i := 0; i < len(active); {
			j := active[i]
			diff := 0.0
			for w := 0; w < workers; w++ {
				diff += k.partial[w*B+j]
			}
			results[j].Iterations = it + 1
			if col[j].Observe != nil {
				col[j].Observe(it+1, diff)
			}
			if diff < col[j].Threshold {
				results[j].Converged = true
				freeze(j, &next) // the just-completed iteration's values
			} else {
				i++
			}
		}
		cur, next = next, cur
	}

	pool.Put(cur)
	pool.Put(next)
	return results
}

// kernel is what a run's sweeps share across iterations.
type kernel struct {
	B       int
	start   []int32
	arcs    []graph.Arc
	alpha   []float64
	d, omd  []float64 // per-column damping and 1−damping
	bases   [][]float64
	bounds  []int     // worker w owns nodes [bounds[w], bounds[w+1])
	partial []float64 // partial L1 residuals, [worker*B + column]
	wg      sync.WaitGroup
}

// sweepWorker is sweepRange as one goroutine of a parallel sweep.
func (k *kernel) sweepWorker(w int, cur, next []float64, active []int) {
	defer k.wg.Done()
	k.sweepRange(w, cur, next, active)
}

// sweepRange advances the live columns over worker w's node range with
// the body the panel width selects, leaving each live column's partial
// L1 residual in w's row of k.partial.
func (k *kernel) sweepRange(w int, cur, next []float64, active []int) {
	lo, hi := k.bounds[w], k.bounds[w+1]
	diffs := k.partial[w*k.B : (w+1)*k.B]
	if k.B == 1 {
		diffs[0] = sweep(k.start, k.arcs, k.alpha, k.d[0], k.bases[0], cur, next, lo, hi)
		return
	}
	sweepBlock(k.start, k.arcs, k.alpha, k.d, k.omd, k.bases, cur, next, k.B, active, diffs, lo, hi)
}

// sweep is the single-column inner loop. It performs one damped gather
// pass over the node range [lo, hi): for each node it accumulates
// (1−d)·base[v] plus the damped in-flow read off the reverse CSR,
// writes next[v], and folds the L1 delta against cur[v] into the
// returned partial. Index arithmetic over the two flat CSR arrays is
// the whole body; there are no slice-header loads or map lookups on the
// hot path.
//
// Bitwise determinism contract: for a full-range call the sequence of
// floating-point additions per node — (1−d)·base[v] first, then
// d·alpha[t]·InvDeg·cur[u] terms in (source, type) order — and the
// ascending-v L1 accumulation reproduce the legacy scatter loop's
// operation order exactly, so scores AND the convergence decision are
// bit-identical to it. Terms whose rate is zero are skipped; they would
// contribute an exact +0.0, which cannot change any partial sum.
func sweep(start []int32, arcs []graph.Arc, alpha []float64, d float64, base, cur, next []float64, lo, hi int) float64 {
	diff := 0.0
	oneMinusD := 1 - d
	for v := lo; v < hi; v++ {
		sum := oneMinusD * base[v]
		for k := start[v]; k < start[v+1]; k++ {
			a := arcs[k]
			w := alpha[a.Type]
			if w == 0 {
				continue
			}
			sum += d * w * float64(a.InvDeg) * cur[a.To]
		}
		next[v] = sum
		delta := sum - cur[v]
		if delta < 0 {
			delta = -delta
		}
		diff += delta
	}
	return diff
}

// sweepBlock is the panel inner loop: one damped gather pass over the
// node range [lo, hi) advancing every ACTIVE column of the
// [node*B+column] panel, accumulating each live column's partial L1
// residual into diffs (indexed by column; entries of frozen columns are
// left untouched — callers only read active entries, which sweepBlock
// fully overwrites via the reset below).
//
// Per-column bitwise determinism: for column j the accumulation per
// node is omd[j]*base_j[v] first, then d[j]*alpha[t]*InvDeg*cur[u·B+j]
// terms in (source, type) order (zero-rate terms skipped), then the
// ascending-v L1 fold — operation for operation sweep's schedule, so
// next[v·B+j] and diffs[j] carry the exact bits sweep(..., bases[j],
// ...) would produce.
func sweepBlock(start []int32, arcs []graph.Arc, alpha []float64, d, omd []float64, bases [][]float64, cur, next []float64, B int, active []int, diffs []float64, lo, hi int) {
	for _, j := range active {
		diffs[j] = 0
	}
	for v := lo; v < hi; v++ {
		row := v * B
		for _, j := range active {
			next[row+j] = omd[j] * bases[j][v]
		}
		for k := start[v]; k < start[v+1]; k++ {
			a := arcs[k]
			w := alpha[a.Type]
			if w == 0 {
				continue
			}
			inv := float64(a.InvDeg)
			urow := int(a.To) * B
			for _, j := range active {
				next[row+j] += d[j] * w * inv * cur[urow+j]
			}
		}
		for _, j := range active {
			delta := next[row+j] - cur[row+j]
			if delta < 0 {
				delta = -delta
			}
			diffs[j] += delta
		}
	}
}

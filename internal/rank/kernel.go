package rank

import (
	"fmt"
	"sync"
	"time"

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

// Iterate solves one damped fixpoint
//
//	r = d·A·r + (1−d)·base
//
// over the authority transfer data graph of g, where A's entries are
// the Equation 1 arc weights alpha[type]·InvDeg (alpha is indexed by
// TransferTypeID, as produced by Rates.Vector): the one power iteration
// every ranking mode in this package, and every solve in the system,
// reduces to. The iteration uses the gather formulation over the
// graph's reverse CSR —
//
//	next[v] = (1−d)·base[v] + d · Σ over in-arcs (u→v) of alpha[t]·InvDeg(u,t)·cur[u]
//
// With a nil plan each sweep is sweep, the arc-struct gather. With a
// plan — the caller's coefficient Plan of (g, alpha) at the run's
// damping — each sweep is sweepPlan, which reads d·alpha[type]·InvDeg
// folded into one float64 per arc. Which body runs is the caller's
// choice (core.Pinned.Solve hands its plan to the columns of a group of
// two or more); it changes no bit of the Result.
//
// Observe fires on the calling goroutine, once per completed sweep with
// the residual, in iteration order. Ctx is polled once per sweep,
// before it starts (one branch, one atomic read, no allocation); a
// cancelled run stops with Result.Err set and its scores at the last
// fully completed iteration, never a half-written sweep.
//
// Bit-identity contract: the Result — scores, Iterations, Converged —
// depends on (graph, rates, base, options) alone. Both bodies perform
// the same float64 operations in the same order: (1−d)·base[v] first,
// then one term per in-arc in (source, type) order, where the plan's
// coef[k] is exactly the (d·alpha[t])·InvDeg sweep forms left to right
// before multiplying by cur[u] (a zero rate adds an exact +0 instead of
// being skipped), and the L1 residual is folded in ascending node
// order. Because the reverse CSR is ordered by (source, type), the
// gather also accumulates each node's sum in the order the seed's
// scatter loop did, so results are bit-identical to it. Enforced by
// TestIteratePanelGoldenEquivalence, the seed goldens and
// internal/conformance.
//
// Result.Scores comes from pool (when non-nil) and can be recycled with
// Result.ReleaseTo. The iteration loop allocates nothing: a run's
// allocations are a small constant, independent of the sweep count,
// with or without Observe and Ctx.
//
// Iterate panics on malformed inputs — a base vector whose length
// differs from g.NumNodes(), an alpha vector that does not cover the
// schema's transfer types, a normalized damping outside [0, 1), a plan
// of another graph or of another damping — before the run starts. A
// mismatched Init vector is the one deliberate exception: it is the
// signature of a warm start donated across a concurrent corpus swap (a
// timing race, not a logic bug) and the fixpoint does not depend on the
// start vector, so the run degrades to a cold start with
// Result.InitDropped set.
func Iterate(g *graph.Graph, alpha, base []float64, opts Options, pool *BufferPool, plan *Plan) Result {
	n := g.NumNodes()
	if len(alpha) < g.Schema().NumTransferTypes() {
		panic(fmt.Sprintf("rank: alpha vector has %d entries, schema has %d transfer types", len(alpha), g.Schema().NumTransferTypes()))
	}
	if len(base) != n {
		panic(fmt.Sprintf("rank: base distribution has %d entries for a %d-node graph", len(base), n))
	}
	o := opts.Normalized()
	if !(o.Damping >= 0 && o.Damping < 1) {
		panic(fmt.Sprintf("rank: damping %v is outside [0, 1)", o.Damping))
	}
	start, arcs := g.ReverseCSR()
	if plan != nil && (len(plan.to) != len(arcs) || plan.d != o.Damping) {
		panic(fmt.Sprintf("rank: plan of %d arcs at damping %v, run has %d arcs at damping %v", len(plan.to), plan.d, len(arcs), o.Damping))
	}
	var res Result
	if o.Init != nil && len(o.Init) != n {
		o.Init, res.InitDropped = nil, true
	}
	t0 := time.Now()
	cur, next := pool.Get(n), pool.Get(n)
	if o.Init != nil {
		copy(cur, o.Init)
	} else {
		copy(cur, base)
	}
	for it := 1; it <= o.MaxIters; it++ {
		if o.Ctx != nil {
			if err := o.Ctx.Err(); err != nil {
				res.Err = err
				break
			}
		}
		var diff float64
		if plan == nil {
			diff = sweep(start, arcs, alpha, o.Damping, base, cur, next)
		} else {
			diff = sweepPlan(start, plan.to, plan.coef, 1-o.Damping, base, cur, next)
		}
		cur, next = next, cur // cur is the just-completed iteration
		res.Iterations = it
		if o.Observe != nil {
			o.Observe(it, diff)
		}
		if diff < o.Threshold {
			res.Converged = true
			break
		}
	}
	pool.Put(next)
	res.Scores = cur
	res.Dur = time.Since(t0)
	return res
}

// Plan is the coefficient form of one (graph, rates, damping) triple:
// the reverse CSR's arc array with everything a sweep multiplies per arc
// — d·alpha[type]·InvDeg — folded into one float64, beside the arc's
// source node. It replaces a 12-byte struct load, a rate-table gather, a
// zero-rate branch, an int-to-float convert and three multiplies per arc
// per sweep by one multiply. A Plan is immutable once built and safe for
// concurrent use; it is valid only for the graph, the alpha and the
// damping it was built from.
type Plan struct {
	d    float64
	to   []int32   // source node per arc; depends on the graph alone
	coef []float64 // (d·alpha[type])·InvDeg per arc, the product sweep forms
}

// PlanSources returns the rate-independent column of g's plans — the
// source node of every reverse-CSR arc — so plans of one graph under
// different rates can share it.
func PlanSources(g *graph.Graph) []int32 {
	_, arcs := g.ReverseCSR()
	to := make([]int32, len(arcs))
	for i, a := range arcs {
		to[i] = int32(a.To)
	}
	return to
}

// NewPlan builds the plan of (g, alpha, damping d). sources is
// PlanSources(g), or nil to have it computed.
func NewPlan(g *graph.Graph, alpha []float64, d float64, sources []int32) *Plan {
	if sources == nil {
		sources = PlanSources(g)
	}
	_, arcs := g.ReverseCSR()
	coef := make([]float64, len(arcs))
	for i, a := range arcs {
		coef[i] = d * alpha[a.Type] * float64(a.InvDeg)
	}
	return &Plan{d: d, to: sources, coef: coef}
}

// sweep is the arc-struct inner loop. It performs one damped gather
// pass over every node: for each node it accumulates (1−d)·base[v] plus
// the damped in-flow read off the reverse CSR, writes next[v], and
// folds the L1 delta against cur[v] into the returned residual. Index
// arithmetic over the two flat CSR arrays is the whole body; there are
// no slice-header loads or map lookups on the hot path.
//
// Bitwise determinism contract: the sequence of floating-point
// additions per node — (1−d)·base[v] first, then
// d·alpha[t]·InvDeg·cur[u] terms in (source, type) order — and the
// ascending-v L1 accumulation reproduce the legacy scatter loop's
// operation order exactly, so scores AND the convergence decision are
// bit-identical to it. Terms whose rate is zero are skipped; they would
// contribute an exact +0.0, which cannot change any partial sum.
func sweep(start []int32, arcs []graph.Arc, alpha []float64, d float64, base, cur, next []float64) float64 {
	diff := 0.0
	oneMinusD := 1 - d
	for v := range next {
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

// sweepPlan is sweep over a coefficient plan, the body of every run
// handed one: coef[k] is the (d·alpha[t])·InvDeg sweep forms per arc,
// so sum gains the same float64 per in-arc in the same order — a
// zero-rate arc adds an exact +0 where sweep skips it — and next and
// the returned residual carry sweep's bits.
func sweepPlan(start, to []int32, coef []float64, oneMinusD float64, base, cur, next []float64) float64 {
	diff := 0.0
	for v := range next {
		sum := oneMinusD * base[v]
		cs := coef[start[v]:start[v+1]]
		ts := to[start[v]:start[v+1]]
		for i, c := range cs {
			sum += c * cur[ts[i]]
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

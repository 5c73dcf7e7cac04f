package core

import (
	"context"
	"fmt"
	"time"

	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// SolveSpec describes one ranking request: the damped fixpoint of
// Equation 4 for each of a list of jump distributions, in one ranking
// direction, from chosen start vectors. Every ranking the system
// computes — an initial query, a reformulated query warm-started from
// the previous scores (§6.2), a batch, a profile blend's mixture terms,
// a personalized jump, the 0/1 jumps of the original ObjectRank and
// topic-sensitive PageRank baselines — is a SolveSpec.
type SolveSpec struct {
	// Queries are solved from their IR-weighted base sets (Equation 2),
	// one result per query, in order. Exactly one of Queries and Jump is
	// set.
	Queries []*ir.Query
	// Jump is a caller-supplied jump distribution with one entry per
	// node of the pinned graph (non-negative, summing to 1), solved
	// directly with the base-set stage bypassed: one result, with no
	// Query or Base. It is only read.
	Jump []float64
	// Mode is the ranking direction; empty means ModeAuthority.
	Mode Mode
	// Inits, if non-nil, donates start vectors (§6.2 warm start): one
	// entry per query (one in all for Jump). A nil entry, or one whose
	// length does not match the graph — a donation from another corpus
	// generation — takes the default start instead. A wrong COUNT returns
	// ErrWarmStartMismatch. A donation belongs to the direction it was
	// solved in. Vectors are only read.
	Inits [][]float64
	// Cold makes the default start of a column without a donation the
	// jump distribution itself rather than the direction's global
	// PageRank (the ablation baseline).
	Cold bool
}

// Solve executes spec under the pinned state — the one way to ask for a
// ranking. It solves the columns in order, each with one rank.Iterate
// call, its own fixpoint and bit-identical to the same request solved
// alone; a column's jump vector is drawn from the buffer pool just
// before its sweep and returned just after it. A query whose base set
// is empty short-circuits to the all-zero fixpoint without occupying a
// column. When two or more columns remain, every one of them sweeps
// over the snapshot's coefficient plan, which the first such call
// builds; a lone column neither builds nor reads one.
//
// The solve hook fires once per call that sweeps at least one column,
// with SolveStats.Columns set to their count, so a batch of N distinct
// queries counts one solve.
//
// Cancellation: Solve polls ctx once on entry and the kernel once per
// sweep. A cancelled column publishes NOTHING — its partial vector goes
// back to the buffer pool — the solve hook does not fire, and Solve
// returns ctx's error with a PARTIAL slice: the columns that finished
// before the cutoff are filled, the rest are nil.
func (p *Pinned) Solve(ctx context.Context, spec SolveSpec) ([]*RankResult, error) {
	v, err := viewOf(spec.Mode)
	if err != nil {
		return nil, err
	}
	st := p.st
	c := st.gen.view(v)
	n := c.g.NumNodes()
	count := len(spec.Queries)
	if spec.Jump != nil {
		if count != 0 {
			return nil, fmt.Errorf("core: a solve takes queries or a jump vector, not both")
		}
		if len(spec.Jump) != n {
			return nil, fmt.Errorf("core: jump vector has %d entries, graph has %d nodes", len(spec.Jump), n)
		}
		count = 1
	}
	if spec.Inits != nil && len(spec.Inits) != count {
		// A miscounted donation list is unrecoverable desync, not a stale
		// vector: no per-column pairing exists, so no degrade is possible.
		return nil, fmt.Errorf("%w: %d init vectors for %d columns", ErrWarmStartMismatch, len(spec.Inits), count)
	}
	out := make([]*RankResult, count)
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// The base sets come first: whether the columns read the plan
	// depends on how many of them have a jump to sweep.
	cols := 0
	for i := range out {
		t0 := time.Now()
		res := &RankResult{RatesVersion: st.snap.version, Generation: st.gen.num}
		if spec.Jump == nil {
			res.Query = spec.Queries[i]
			res.Base, res.BaseMass = baseSetOf(c, res.Query)
			if len(res.Base) > 0 {
				cols++
			}
		}
		res.BaseSetDur = time.Since(t0)
		out[i] = res
	}

	stats := SolveStats{Converged: true, Mode: viewModes[v], Ctx: ctx}
	t1 := time.Now()
	var plan *rank.Plan
	if cols > 1 {
		plan, stats.PlanBuilt, stats.PlanBuildDur = st.snap.plan(st.gen, v)
	}
	for i, res := range out {
		jump := c.pool.GetZeroed(n)
		support := len(res.Base)
		if spec.Jump != nil {
			for u, x := range spec.Jump {
				if x != 0 {
					jump[u] = x
					support++
				}
			}
		}
		for _, sd := range res.Base {
			jump[sd.Doc] = sd.Score
		}
		if support == 0 {
			// Nothing to jump to: the fixpoint is identically zero, so
			// skip the iteration (a warm start would otherwise only
			// decay toward zero).
			res.Scores, res.Converged = jump, true
			continue
		}
		o := c.opts
		o.Ctx = ctx
		if spec.Inits != nil && len(spec.Inits[i]) == n {
			o.Init = spec.Inits[i]
			stats.WarmStarted = true
		} else if !spec.Cold {
			o.Init = st.gen.globalScores(v, st.snap)
		}
		kr := rank.Iterate(c.g, st.snap.alpha, jump, o, c.pool, plan)
		c.pool.Put(jump)
		if kr.Err != nil {
			// Cancelled: recycle the partial vector and publish nothing
			// for this column or any after it.
			kr.ReleaseTo(c.pool)
			clear(out[i:])
			return out, kr.Err
		}
		res.Scores, res.Iterations, res.Converged, res.SolveDur = kr.Scores, kr.Iterations, kr.Converged, kr.Dur
		stats.Columns++
		stats.Iterations = max(stats.Iterations, kr.Iterations)
		stats.Converged = stats.Converged && kr.Converged
	}
	if stats.Columns > 0 {
		stats.SolveDur = time.Since(t1)
		p.e.notifySolve(stats)
	}
	return out, nil
}

// The five methods below are Solve under the names cmd/afqbench binds
// (oracle.go, probe.go). The benchmark's sources are frozen, so they
// stay as one-line adapters until it can switch to Solve; nothing else
// in the module may call them.

// one unwraps a single-query Solve.
func one(rs []*RankResult, err error) (*RankResult, error) {
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RankCtx solves q in authority mode from the global PageRank.
func (p *Pinned) RankCtx(ctx context.Context, q *ir.Query) (*RankResult, error) {
	return one(p.Solve(ctx, SolveSpec{Queries: []*ir.Query{q}}))
}

// RankColdCtx solves q in authority mode with no warm start.
func (p *Pinned) RankColdCtx(ctx context.Context, q *ir.Query) (*RankResult, error) {
	return one(p.Solve(ctx, SolveSpec{Queries: []*ir.Query{q}, Cold: true}))
}

// RankFromCtx solves q in authority mode warm-started from init (cold
// when init is nil or stale).
func (p *Pinned) RankFromCtx(ctx context.Context, q *ir.Query, init []float64) (*RankResult, error) {
	return one(p.Solve(ctx, SolveSpec{Queries: []*ir.Query{q}, Inits: [][]float64{init}, Cold: true}))
}

// RankModeCtx solves q in mode m from the direction's global PageRank.
func (p *Pinned) RankModeCtx(ctx context.Context, q *ir.Query, m Mode) (*RankResult, error) {
	return one(p.Solve(ctx, SolveSpec{Queries: []*ir.Query{q}, Mode: m}))
}

// RankManyCtx solves qs in authority mode from the global PageRank.
func (p *Pinned) RankManyCtx(ctx context.Context, qs []*ir.Query) ([]*RankResult, error) {
	return p.Solve(ctx, SolveSpec{Queries: qs})
}

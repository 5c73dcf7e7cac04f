package conformance

import (
	"context"
	"testing"

	"authorityflow/internal/cache"
	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/profile"
	"authorityflow/internal/rank"
)

// This file is the only place the conformance table touches the solve
// stack's entry points.

// kernelColumns runs the worlds' base distributions through the kernel
// in panels of the given width, the panels solved by that many callers
// at once over one buffer pool, and returns one score vector per base
// distribution.
func kernelColumns(w *world, width, callers int) [][]float64 {
	alpha := w.rates.Vector()
	jumps := w.jumps()
	pool := rank.NewBufferPool()
	panels := make([][][]float64, (len(jumps)+width-1)/width)
	concurrently(callers, len(panels), func(p int) error {
		lo, hi := p*width, (p+1)*width
		if hi > len(jumps) {
			hi = len(jumps)
		}
		for _, res := range rank.Iterate(w.g, alpha, jumps[lo:hi], []rank.Options{tight}, pool, nil) {
			panels[p] = append(panels[p], append([]float64(nil), res.Scores...))
			res.ReleaseTo(pool)
		}
		return nil
	})
	var out [][]float64
	for _, p := range panels {
		out = append(out, p...)
	}
	return out
}

func solve(t *testing.T, pin *core.Pinned, spec core.SolveSpec) [][]float64 {
	t.Helper()
	results, err := pin.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(results))
	for i, res := range results {
		out[i] = res.Scores
	}
	return out
}

// solveOne is one uncached solve of q in mode m, warm-started from init
// when it is non-nil and from the direction's global PageRank otherwise.
func solveOne(t *testing.T, pin *core.Pinned, m core.Mode, q *ir.Query, init []float64) []float64 {
	t.Helper()
	spec := core.SolveSpec{Queries: []*ir.Query{q}, Mode: m}
	if init != nil {
		spec.Inits = [][]float64{init}
	}
	return solve(t, pin, spec)[0]
}

// solveConcurrently solves every query of qs on its own, from that many
// callers at once over one pin.
func solveConcurrently(t *testing.T, pin *core.Pinned, m core.Mode, qs []*ir.Query, callers int) [][]float64 {
	t.Helper()
	out := make([][]float64, len(qs))
	err := concurrently(callers, len(qs), func(i int) error {
		results, err := pin.Solve(context.Background(), core.SolveSpec{Queries: qs[i : i+1], Mode: m})
		if err == nil {
			out[i] = results[0].Scores
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// solveMany is one uncached batch solve of qs in direction m.
func solveMany(t *testing.T, pin *core.Pinned, m core.Mode, qs []*ir.Query) [][]float64 {
	t.Helper()
	return solve(t, pin, core.SolveSpec{Queries: qs, Mode: m})
}

// solveJump solves the fixpoint of a caller-supplied jump distribution.
func solveJump(t *testing.T, pin *core.Pinned, jump []float64) []float64 {
	t.Helper()
	return solve(t, pin, core.SolveSpec{Jump: jump, Cold: true})[0]
}

// rankOne is one uncached ranking of q in direction m, base set and all:
// what an explain reads.
func rankOne(t *testing.T, pin *core.Pinned, m core.Mode, q *ir.Query) *core.RankResult {
	t.Helper()
	res, err := pin.RankModeCtx(context.Background(), q, m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rankCold is one uncached ranking of q in direction m started from its
// own jump distribution: the same bits on every engine over the same
// graph and rates, whatever that engine solved before.
func rankCold(t *testing.T, pin *core.Pinned, m core.Mode, q *ir.Query) *core.RankResult {
	t.Helper()
	results, err := pin.Solve(context.Background(), core.SolveSpec{Queries: []*ir.Query{q}, Mode: m, Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// explainOne builds one explaining subgraph in direction m.
func explainOne(t *testing.T, ctx context.Context, pin *core.Pinned, m core.Mode, c explainCase) *core.Subgraph {
	t.Helper()
	sg, err := pin.ExplainModeCtx(ctx, m, c.res, c.target, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// blender is a profile manager whose blends read their term vectors
// through the serving cache c.
func blender(t *testing.T, c *cache.CachedEngine) *profile.Manager {
	t.Helper()
	m, err := profile.NewManager(c.Engine(), profile.Options{Dir: t.TempDir(), Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// panel is the manager's topic-term panel for pin's generation.
func panel(t *testing.T, m *profile.Manager, pin *core.Pinned) *profile.Basis {
	t.Helper()
	b, err := m.BasisFor(context.Background(), pin)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// blend is the profile tier's personalized vector
// (1−β)·qscores + β·Σ_t m̂_t·r_t under pin.
func blend(t *testing.T, m *profile.Manager, pin *core.Pinned, qscores []float64, mixture map[string]float64, beta float64) []float64 {
	t.Helper()
	out, err := m.Blend(context.Background(), pin, qscores, mixture, beta)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

package conformance

import (
	"context"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// This file is the only place the conformance table touches the solve
// stack's entry points.

// kernelColumns runs the worlds' base distributions through the kernel
// in panels of the given width and returns one score vector per base
// distribution.
func kernelColumns(w *world, width, workers int) [][]float64 {
	alpha := w.rates.Vector()
	jumps := w.jumps()
	var out [][]float64
	for lo := 0; lo < len(jumps); lo += width {
		hi := lo + width
		if hi > len(jumps) {
			hi = len(jumps)
		}
		if width == 1 {
			out = append(out, rank.Iterate(w.g, alpha, jumps[lo], tight, workers, nil).Scores)
			continue
		}
		for _, res := range rank.IterateBlock(w.g, alpha, jumps[lo:hi], []rank.Options{tight}, workers, nil) {
			out = append(out, res.Scores)
		}
	}
	return out
}

// solveOne is one uncached solve of q in mode m, warm-started from init
// when it is non-nil and from the direction's global PageRank otherwise.
func solveOne(t *testing.T, pin *core.Pinned, m core.Mode, q *ir.Query, init []float64) []float64 {
	t.Helper()
	ctx := context.Background()
	var res *core.RankResult
	var err error
	switch {
	case init == nil:
		res, err = pin.RankModeCtx(ctx, q, m)
	case m == core.ModeHub:
		res, err = pin.RankHubFromCtx(ctx, q, init)
	default:
		res, err = pin.RankFromCtx(ctx, q, init)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Scores
}

// solveMany is one uncached batch solve of qs in direction m.
func solveMany(t *testing.T, pin *core.Pinned, m core.Mode, qs []*ir.Query) [][]float64 {
	t.Helper()
	var results []*core.RankResult
	var err error
	if m == core.ModeHub {
		results, err = pin.RankManyHubFromCtx(context.Background(), qs, nil)
	} else {
		results, err = pin.RankManyCtx(context.Background(), qs)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(results))
	for i, res := range results {
		out[i] = res.Scores
	}
	return out
}

// solveJump solves the fixpoint of a caller-supplied jump distribution.
func solveJump(t *testing.T, pin *core.Pinned, jump []float64) []float64 {
	t.Helper()
	res, err := pin.RankJumpCtx(context.Background(), jump, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Scores
}

package core

import (
	"context"
	"testing"

	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// TestSolveCancelled: a pre-cancelled context stops the query before
// the solve starts — no result, context.Canceled — and no score vector
// escapes the engine's pool. The afqbench adapters inherit it.
func TestSolveCancelled(t *testing.T) {
	pin := newFixture(t).newEngine(t).Pin()
	q := ir.NewQuery("olap")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if rs, err := pin.Solve(ctx, SolveSpec{Queries: []*ir.Query{q}}); err != context.Canceled || rs[0] != nil {
		t.Fatalf("Solve = (%v, %v), want ([nil], context.Canceled)", rs, err)
	}
	if res, err := pin.RankCtx(ctx, q); err != context.Canceled || res != nil {
		t.Fatalf("RankCtx = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if res, err := pin.RankColdCtx(ctx, q); err != context.Canceled || res != nil {
		t.Fatalf("RankColdCtx = (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestSolveLiveCtxMatchesBackground: a live cancellable context changes
// nothing — the result is bit-identical to the one solved under
// context.Background() (same snapshot, same warm start discipline).
func TestSolveLiveCtxMatchesBackground(t *testing.T) {
	e := newFixture(t).newEngine(t)
	q := ir.NewQuery("olap")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	plain := rankCold(e, q)
	withCtx, err := e.Pin().RankColdCtx(ctx, q)
	if err != nil {
		t.Fatalf("RankColdCtx under live ctx: %v", err)
	}
	if plain.Iterations != withCtx.Iterations || plain.Converged != withCtx.Converged {
		t.Fatalf("iterations/converged differ: %d/%t vs %d/%t",
			plain.Iterations, plain.Converged, withCtx.Iterations, withCtx.Converged)
	}
	for v := range plain.Scores {
		if plain.Scores[v] != withCtx.Scores[v] {
			t.Fatalf("score %d differs: %v vs %v", v, plain.Scores[v], withCtx.Scores[v])
		}
	}
	e.Release(plain)
	e.Release(withCtx)
}

// TestExplainCtxCancelled: explain under a dead context returns the
// context error from the first phase boundary; a live cancellable
// context produces the same subgraph as a background one.
func TestExplainCtxCancelled(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	res := rankQ(e, ir.NewQuery("olap"))
	defer e.Release(res)
	target := f.ids["v7"]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sg, err := e.Pin().ExplainCtx(ctx, res, target, DefaultExplain()); err != context.Canceled || sg != nil {
		t.Fatalf("ExplainCtx = (%v, %v), want (nil, context.Canceled)", sg, err)
	}

	plain, err := explain(e, res, target, DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}
	liveCtx, stop := context.WithCancel(context.Background())
	defer stop()
	live, err := e.Pin().ExplainCtx(liveCtx, res, target, DefaultExplain())
	if err != nil {
		t.Fatalf("ExplainCtx under live ctx: %v", err)
	}
	if plain.ExplainedScore() != live.ExplainedScore() || plain.Iterations != live.Iterations {
		t.Fatalf("live-ctx explain differs: score %v/%v iters %d/%d",
			plain.ExplainedScore(), live.ExplainedScore(), plain.Iterations, live.Iterations)
	}
}

// TestReformulateCtxCancelled: reformulation under a dead context
// returns the context error before touching the snapshot's rates.
func TestReformulateCtxCancelled(t *testing.T) {
	f := newFixture(t)
	e := f.newEngine(t)
	q := ir.NewQuery("olap")
	res := rankQ(e, q)
	defer e.Release(res)
	sg, err := explain(e, res, f.ids["v7"], DefaultExplain())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := e.Pin().ReformulateWeightedCtx(ctx, q, []*Subgraph{sg}, []float64{1}, ContentAndStructure()); err != context.Canceled || out != nil {
		t.Fatalf("ReformulateWeightedCtx = (%v, %v), want (nil, context.Canceled)", out, err)
	}

	// Live context, and nil confidences for explicit weight 1: the
	// same outcome.
	plain, err := reformulate(e, q, []*Subgraph{sg}, nil, ContentAndStructure())
	if err != nil {
		t.Fatal(err)
	}
	liveCtx, stop := context.WithCancel(context.Background())
	defer stop()
	live, err := e.Pin().ReformulateWeightedCtx(liveCtx, q, []*Subgraph{sg}, []float64{1}, ContentAndStructure())
	if err != nil {
		t.Fatalf("ReformulateWeightedCtx under live ctx: %v", err)
	}
	if len(plain.Expansion) != len(live.Expansion) {
		t.Fatalf("expansion sizes differ: %d vs %d", len(plain.Expansion), len(live.Expansion))
	}
	for i := range plain.Expansion {
		if plain.Expansion[i] != live.Expansion[i] {
			t.Fatalf("expansion %d differs: %+v vs %+v", i, plain.Expansion[i], live.Expansion[i])
		}
	}
}

// TestSolveCancelSkipsHook: a context cancelled before the fixpoint
// makes Solve return the context error and recycle the partial vector
// instead of publishing it, and the solve hook does not fire.
func TestSolveCancelSkipsHook(t *testing.T) {
	f := newFixture(t)
	// A fresh engine with ZeroThreshold forces the solve to run the full
	// MaxIters budget, leaving plenty of sweeps to cancel within.
	e, err := NewEngine(f.g, f.rates, Config{
		Rank: rank.Options{Damping: 0.85, Threshold: rank.ZeroThreshold, MaxIters: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hooked := false
	e.SetSolveHook(func(SolveStats) { hooked = true })
	// Cancel after the warm-start global solve: GlobalRank runs without
	// the caller ctx, so only the query solve observes the cancellation.
	e.GlobalRank()
	cancel()
	rs, err := e.Pin().Solve(ctx, SolveSpec{Queries: []*ir.Query{ir.NewQuery("olap")}})
	if err != context.Canceled || rs[0] != nil {
		t.Fatalf("Solve = (%v, %v), want ([nil], context.Canceled)", rs, err)
	}
	if hooked {
		t.Fatal("solve hook fired for a cancelled solve")
	}
}

// TestSolveMidBatchCancelGroupGranularity: the unit of completion of a
// Solve wider than DefaultBlockSize is the group. Cancelling at the
// first solve-hook firing returns the context error with exactly the
// first group's results filled — they converged in the same kernel
// execution, bit-equal to the uncancelled solve's — and none of the next
// group's; a term with no base set occupies no kernel column.
func TestSolveMidBatchCancelGroupGranularity(t *testing.T) {
	e := newFixture(t).newEngine(t)
	terms := []string{"olap", "index", "zebra", "range", "data", "cube", "modeling", "agrawal",
		"multidimensional", "databases", "icde"}
	spec := SolveSpec{}
	for _, tm := range terms {
		spec.Queries = append(spec.Queries, ir.NewQuery(tm))
	}
	full, err := e.Pin().Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	solves := 0
	e.SetSolveHook(func(st SolveStats) {
		solves++
		if st.Columns != DefaultBlockSize-1 { // the group minus "zebra"
			t.Errorf("solve %d: Columns = %d, want %d", solves, st.Columns, DefaultBlockSize-1)
		}
		cancel()
	})
	part, err := e.Pin().Solve(ctx, spec)
	if err != context.Canceled || solves != 1 {
		t.Fatalf("err = %v after %d kernel executions, want context.Canceled after 1", err, solves)
	}
	for i, res := range part {
		if i >= DefaultBlockSize {
			if res != nil {
				t.Errorf("%q: a result from a group after the cutoff", terms[i])
			}
			continue
		}
		if res == nil {
			t.Fatalf("%q: the group that completed before the cutoff lost a result", terms[i])
		}
		for v, x := range res.Scores {
			if x != full[i].Scores[v] {
				t.Fatalf("%q: score %d differs from the uncancelled solve: %v vs %v", terms[i], v, x, full[i].Scores[v])
			}
		}
	}
}

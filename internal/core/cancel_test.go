package core

import (
	"context"
	"math"
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

// TestSolveMidBatchCancelColumnGranularity: the unit of completion of a
// Solve is the column, however many it has. Cancelling at the first
// poll of the ninth kernel column returns the context error with
// exactly the queries before it filled, each Float64bits-equal to the
// uncancelled solve's — among them a term with no base set, which
// occupies no kernel column — and none after it; the solve hook does
// not fire.
func TestSolveMidBatchCancelColumnGranularity(t *testing.T) {
	e := newFixture(t).newEngine(t)
	terms := []string{"olap", "index", "zebra", "range", "data", "cube", "modeling", "agrawal",
		"multidimensional", "databases", "icde"}
	spec := SolveSpec{}
	for _, tm := range terms {
		spec.Queries = append(spec.Queries, ir.NewQuery(tm))
	}
	const never = 1 << 30
	counting := &countdown{Context: context.Background(), left: never}
	full, err := e.Pin().Solve(counting, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(full[2].Base) != 0 {
		t.Fatal("zebra must have an empty base set")
	}
	const cut = 9 // the index of the ninth kernel column
	polls := 1    // Solve's entry poll
	for _, res := range full[:cut] {
		polls += res.Iterations
	}

	hooks := 0
	e.SetSolveHook(func(SolveStats) { hooks++ })
	part, err := e.Pin().Solve(&countdown{Context: context.Background(), left: polls}, spec)
	if err != context.Canceled || hooks != 0 {
		t.Fatalf("err = %v after %d hook firings, want context.Canceled after 0", err, hooks)
	}
	for i, res := range part {
		if i >= cut {
			if res != nil {
				t.Errorf("%q: a result from a column after the cutoff", terms[i])
			}
			continue
		}
		if res == nil {
			t.Fatalf("%q: a column that finished before the cutoff lost its result", terms[i])
		}
		for v, x := range res.Scores {
			if math.Float64bits(x) != math.Float64bits(full[i].Scores[v]) {
				t.Fatalf("%q: score %d differs from the uncancelled solve: %v vs %v", terms[i], v, x, full[i].Scores[v])
			}
		}
	}
}

// TestSolveGroupCancelAtEachPoll cancels a three-column group at each
// of its context polls in turn — the group's own poll, then one per
// sweep of each column, the columns solved one after another over the
// snapshot's plan. Solve must return the context error, fill exactly
// the columns that finished before the cancelled poll, each
// Float64bits-equal to the uncancelled solve's, fill nothing for the
// rest and fire no solve hook.
func TestSolveGroupCancelAtEachPoll(t *testing.T) {
	e := newFixture(t).newEngine(t)
	spec := SolveSpec{Queries: []*ir.Query{ir.NewQuery("olap"), ir.NewQuery("cube"), ir.NewQuery("agrawal")}}
	const never = 1 << 30
	counting := &countdown{Context: context.Background(), left: never}
	full, err := e.Pin().Solve(counting, spec)
	if err != nil {
		t.Fatal(err)
	}
	polls := never - counting.left
	finishedBy := make([]int, len(full)) // the polls a column has made when it finishes
	for j, done := 0, 1; j < len(full); j++ {
		done += full[j].Iterations
		finishedBy[j] = done
	}
	if polls < 2*len(full) || finishedBy[len(full)-1] != polls {
		t.Fatalf("%d polls for %d columns, want 1 + Σ iterations = %d, at least two a column", polls, len(full), finishedBy[len(full)-1])
	}

	hooks := 0
	e.SetSolveHook(func(SolveStats) { hooks++ })
	for poll := 0; poll <= polls; poll++ {
		hooks = 0
		rs, err := e.Pin().Solve(&countdown{Context: context.Background(), left: poll}, spec)
		wantErr, wantHooks := error(context.Canceled), 0
		if poll == polls {
			wantErr, wantHooks = nil, 1
		}
		if err != wantErr || hooks != wantHooks {
			t.Fatalf("cancelled at poll %d: err = %v after %d hook firings, want %v after %d", poll, err, hooks, wantErr, wantHooks)
		}
		for j, res := range rs {
			if finishedBy[j] > poll {
				if res != nil {
					t.Errorf("cancelled at poll %d: column %d, unfinished, was filled", poll, j)
				}
				continue
			}
			if res == nil {
				t.Fatalf("cancelled at poll %d: column %d finished at poll %d and was not filled", poll, j, finishedBy[j])
			}
			if res.Iterations != full[j].Iterations {
				t.Errorf("cancelled at poll %d: column %d ran %d iterations, want %d", poll, j, res.Iterations, full[j].Iterations)
			}
			for v, x := range res.Scores {
				if math.Float64bits(x) != math.Float64bits(full[j].Scores[v]) {
					t.Fatalf("cancelled at poll %d: column %d score %d = %v, want %v", poll, j, v, x, full[j].Scores[v])
				}
			}
		}
	}
}

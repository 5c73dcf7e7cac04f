package precompute

import (
	"context"
	"fmt"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
)

// TestBuildCtxCancelled: a pre-cancelled context aborts the build
// before any term solve starts — the returned partial store is empty
// and the error is the context error (serial and parallel paths).
func TestBuildCtxCancelled(t *testing.T) {
	eng, _ := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 3} {
		st, err := BuildCtx(ctx, eng, []string{"olap", "xml", "query"}, BuildOptions{Workers: workers})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if st == nil || st.Terms() != 0 {
			t.Fatalf("workers=%d: partial store has %d terms after pre-cancelled build, want 0", workers, st.Terms())
		}
	}
}

// TestBuildCtxLiveMatchesBuild: a live context is a no-op — BuildCtx
// produces the same store as Build, term for term.
func TestBuildCtxLiveMatchesBuild(t *testing.T) {
	eng, _ := testEngine(t)
	terms := []string{"olap", "xml"}
	plain := Build(eng, terms, BuildOptions{TopK: 20})
	withCtx, err := BuildCtx(context.Background(), eng, terms, BuildOptions{TopK: 20})
	if err != nil {
		t.Fatalf("BuildCtx under live ctx: %v", err)
	}
	if plain.Terms() != withCtx.Terms() {
		t.Fatalf("term counts differ: %d vs %d", plain.Terms(), withCtx.Terms())
	}
	for _, term := range terms {
		if plain.Has(term) != withCtx.Has(term) {
			t.Fatalf("term %q presence differs", term)
		}
	}
}

// firstGroup returns the terms of buildTestTerms' first
// core.DefaultBlockSize-wide group that have a base set: the columns of
// the build's first kernel execution.
func firstGroup(eng *core.Engine) []string {
	var out []string
	for _, tm := range buildTestTerms[:core.DefaultBlockSize] {
		if len(eng.Index().BaseSet(ir.NewQuery(tm))) > 0 {
			out = append(out, tm)
		}
	}
	return out
}

// TestBuildCtxMidBuildCancel cancels at the first completed kernel
// execution (the forced GlobalRank warm-start does not route through
// the solve hook) and asserts that the build, one group at a time or
// three at once, returns the context error with a partial but
// internally consistent store: every term it holds is bit-equal to the
// uncancelled build's.
func TestBuildCtxMidBuildCancel(t *testing.T) {
	eng, _ := testEngine(t)
	full := Build(eng, buildTestTerms, BuildOptions{})
	for _, workers := range []int{0, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		eng.SetSolveHook(func(core.SolveStats) { cancel() })
		st, err := BuildCtx(ctx, eng, buildTestTerms, BuildOptions{Workers: workers})
		eng.SetSolveHook(nil)
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if st.Terms() == 0 {
			t.Fatalf("workers=%d: the group that completed before the cutoff was not stored", workers)
		}
		want := &Store{terms: make(map[string]termData)}
		for term := range st.terms {
			want.terms[term] = full.terms[term]
		}
		assertStoresByteEqual(t, fmt.Sprintf("workers=%d", workers), want, st)
	}
}

// TestBuildCtxMidBuildCancelPanelGranularity: the unit of completion is
// the group of core.DefaultBlockSize terms — cancelling at the first
// solve-hook firing of a serial build leaves exactly that group's terms
// stored, because they converged in the same kernel execution, and none
// of the next group's.
func TestBuildCtxMidBuildCancelPanelGranularity(t *testing.T) {
	eng, _ := testEngine(t)
	want := firstGroup(eng)
	ctx, cancel := context.WithCancel(context.Background())
	solves := 0
	eng.SetSolveHook(func(st core.SolveStats) {
		solves++
		if st.Columns != len(want) {
			t.Errorf("solve %d: Columns = %d, want %d", solves, st.Columns, len(want))
		}
		cancel()
	})
	st, err := BuildCtx(ctx, eng, buildTestTerms, BuildOptions{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if solves != 1 || st.Terms() != len(want) {
		t.Fatalf("%d kernel executions stored %d terms, want 1 storing the first group's %d", solves, st.Terms(), len(want))
	}
	for _, tm := range want {
		if !st.Has(tm) {
			t.Fatalf("first group's term %q missing from the partial store", tm)
		}
	}
}

package cache

import (
	"context"
	"runtime"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// kernelRuns counts eng's kernel executions and the columns they ran
// until the returned stop is called.
func kernelRuns(eng *core.Engine) (solves, columns *int, stop func()) {
	solves, columns = new(int), new(int)
	eng.SetSolveHook(func(st core.SolveStats) {
		*solves++
		*columns += st.Columns
	})
	return solves, columns, func() { eng.SetSolveHook(nil) }
}

// pairs returns n two-keyword queries over terms, each pair once.
func pairs(terms []string, n int) []*ir.Query {
	var out []*ir.Query
	for i := 0; i < len(terms) && len(out) < n; i++ {
		for j := i + 1; j < len(terms) && len(out) < n; j++ {
			out = append(out, ir.NewQuery(terms[i], terms[j]))
		}
	}
	return out
}

func tens(n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = 10
	}
	return ks
}

// TestAssembledBatchRunsNoKernel: a 16-item batch of two-keyword queries
// whose keywords' vectors are all resident runs no kernel solve and
// answers every item from term vectors.
func TestAssembledBatchRunsNoKernel(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})
	terms := []string{"olap", "xml", "mining", "query", "index", "search", "web"}
	for _, term := range terms {
		query(c, ir.NewQuery(term), 1)
	}
	qs := pairs(terms, 16)
	solves, _, stop := kernelRuns(eng)
	defer stop()
	computes := c.Stats().Computes
	answers, err := c.QueryBatchModePinnedCtx(context.Background(), eng.Pin(), qs, tens(len(qs)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if *solves != 0 || c.Stats().Computes != computes {
		t.Errorf("an all-resident batch ran %d kernel solves (%d computes)", *solves, c.Stats().Computes-computes)
	}
	for i, a := range answers {
		if a.Source != SourceTerm || len(a.Results) == 0 {
			t.Errorf("item %d (%v): source %q with %d results, want term", i, qs[i], a.Source, len(a.Results))
		}
	}
}

// TestBatchGathersMissingTerms: a batch whose multi-keyword items lack
// some keywords' vectors runs ONE solve, whose columns are exactly the
// distinct missing keywords and the batch's own unanswerable columns (a
// cold single-keyword item); the missing keywords' vectors are kept, and
// every multi-keyword item is assembled.
func TestBatchGathersMissingTerms(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})
	eng.GlobalRank() // take the warm-start solve out of the picture
	query(c, ir.NewQuery("olap"), 1)
	query(c, ir.NewQuery("xml"), 1)
	qs := []*ir.Query{
		ir.NewQuery("olap", "cube"),   // cube missing
		ir.NewQuery("xml", "mining"),  // mining missing
		ir.NewQuery("cube", "mining"), // both missing, each gathered once
		ir.NewQuery("mining"),         // a cold single: its column is shared with the gathered one
		ir.NewQuery("web"),            // a cold single
		ir.NewQuery("olap", "xml"),    // all resident
		ir.NewQuery("zzqq", "yyqq"),   // matches nothing: solved, no kernel column
	}
	entries := c.Stats().Vector.Entries
	solves, columns, stop := kernelRuns(eng)
	answers, err := c.QueryBatchModePinnedCtx(context.Background(), eng.Pin(), qs, tens(len(qs)), nil)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if *solves != 1 || *columns != 3 {
		t.Errorf("batch ran %d solves of %d columns, want 1 of 3 (cube, mining, web)", *solves, *columns)
	}
	if n := c.Stats().Vector.Entries - entries; n != 3 {
		t.Errorf("batch kept %d new term vectors, want 3", n)
	}
	for i, want := range []string{SourceTerm, SourceTerm, SourceTerm, SourceComputed, SourceComputed, SourceTerm, SourceComputed} {
		if answers[i].Source != want {
			t.Errorf("item %d (%v): source %q, want %q", i, qs[i], answers[i].Source, want)
		}
	}
}

// TestSingleQueryWithMissingTermSolves: a single two-keyword query with
// one keyword's vector not resident is solved as one multi-keyword
// column, as before assembly existed, and keeps no term vector; once
// both keywords are resident the same query is assembled.
func TestSingleQueryWithMissingTermSolves(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})
	query(c, ir.NewQuery("olap"), 1)
	entries := c.Stats().Vector.Entries
	solves, columns, stop := kernelRuns(eng)
	a := query(c, ir.NewQuery("olap", "cube"), 10)
	stop()
	if *solves != 1 || *columns != 1 || a.Source != SourceComputed {
		t.Errorf("single two-keyword query, one keyword cold: %d solves of %d columns, source %q; want 1 of 1, computed", *solves, *columns, a.Source)
	}
	if n := c.Stats().Vector.Entries; n != entries {
		t.Errorf("the single query kept %d term vectors, want none", n-entries)
	}
	query(c, ir.NewQuery("cube"), 1)
	if a := query(c, ir.NewQuery("olap", "cube"), 5); a.Source != SourceTerm {
		t.Errorf("with both keywords resident: source %q, want term", a.Source)
	}
}

// TestAssembleAllocs is the memory guard of assembly: an assembled
// vector is drawn from and returned to the engine's buffer pool like a
// solved column's, so 100 all-resident batches allocate less than one
// graph-sized vector per assembled item in all — a fresh vector per item
// would allocate that much by itself. The corpus is large enough (5,658
// nodes) that a vector outweighs an item's top-k bookkeeping.
func TestAssembleAllocs(t *testing.T) {
	_, eng := testEngineAt(t, rank.Options{}, 0.25)
	c := New(eng, Options{})
	terms := []string{"olap", "xml", "mining", "query"}
	for _, term := range terms {
		query(c, ir.NewQuery(term), 1)
	}
	qs := pairs(terms, 4)
	pin := eng.Pin()
	ks := make([]int, len(qs))
	run := func(k int) {
		for i := range ks {
			ks[i] = k // a new k misses the result LRU, so every item is assembled again
		}
		answers, err := c.QueryBatchModePinnedCtx(context.Background(), pin, qs, ks, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers {
			if a.Source != SourceTerm {
				t.Fatalf("k=%d: an item came from %q", k, a.Source)
			}
		}
	}
	run(1) // fills the pool
	const batches = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 2; k < 2+batches; k++ {
		run(k)
	}
	runtime.ReadMemStats(&after)
	items := batches * len(qs)
	vector := 8 * eng.Graph().NumNodes()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d assembled items allocated %d B, %.3f of a %d-B vector each", items, got, float64(got)/float64(items*vector), vector)
	if got >= uint64(items*vector) {
		t.Errorf("%d assembled items allocated %d B, not below one %d-B vector each", items, got, vector)
	}
}

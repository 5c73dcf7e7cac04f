package cache

import (
	"context"
	"math"
	"sync"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// assertAnswersBitEqual compares two answers item-for-item at the bit
// level (nodes, Float64bits scores, InBase flags) plus the metadata a
// batch answer must reproduce.
func assertAnswersBitEqual(t *testing.T, label string, want, got *Answer) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil answer (want %v, got %v)", label, want != nil, got != nil)
	}
	if len(want.Results) != len(got.Results) {
		t.Fatalf("%s: result lengths differ: %d vs %d", label, len(want.Results), len(got.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if w.Node != g.Node || w.InBase != g.InBase ||
			math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: item %d differs: %+v vs %+v", label, i, w, g)
		}
	}
	if want.Iterations != got.Iterations || want.BaseSet != got.BaseSet || want.Version != got.Version {
		t.Fatalf("%s: metadata differs: {%d %d %d} vs {%d %d %d}", label,
			want.Iterations, want.BaseSet, want.Version,
			got.Iterations, got.BaseSet, got.Version)
	}
}

// TestQueryBatchMatchesSingle: a cold batch over a mixed panel of
// single- and multi-keyword queries returns, per query, the same answer
// the single-query path produces — bit-for-bit, a multi-keyword item
// being assembled from the same term vectors its single twin is once
// those are resident — and fills both caches so a repeat batch is
// served entirely from the result cache.
func TestQueryBatchMatchesSingle(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	// Two independent caches over one engine: 'single' establishes the
	// reference answers, 'batch' answers the same queries in one call.
	single := New(eng, Options{})
	batch := New(eng, Options{})

	qs := []*ir.Query{
		ir.NewQuery("olap"),
		ir.NewQuery("xml", "mining"),
		ir.NewQuery("olap"), // duplicate: must dedupe onto one column
		ir.NewQuery("query"),
		ir.NewQuery("nonexistentzzz"), // empty base set
		ir.NewQuery("xml", "mining"),  // duplicate multi-term
	}
	ks := []int{10, 10, 5, 10, 10, 10}

	query(single, ir.NewQuery("xml"), 1)
	query(single, ir.NewQuery("mining"), 1)
	want := make([]*Answer, len(qs))
	for i, q := range qs {
		want[i] = query(single, q, ks[i])
	}

	pin := eng.Pin()
	got, err := batch.QueryBatchModePinnedCtx(context.Background(), pin, qs, ks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		assertAnswersBitEqual(t, qs[i].Terms()[0], want[i], got[i])
		wantSrc := SourceComputed
		if q.Len() > 1 {
			wantSrc = SourceTerm
		}
		if got[i].Source != wantSrc {
			t.Errorf("query %d: source %q, want %q", i, got[i].Source, wantSrc)
		}
	}

	// Dedup accounting: queries 2 and 5 joined existing columns.
	if d := batch.Stats().SingleflightDedup; d != 2 {
		t.Errorf("in-batch dedup = %d, want 2", d)
	}

	// Repeat batch: everything from the result cache, same bits.
	got2, err := batch.QueryBatchModePinnedCtx(context.Background(), pin, qs, ks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		assertAnswersBitEqual(t, "repeat", got[i], got2[i])
		if got2[i].Source != SourceResult {
			t.Errorf("repeat query %d: source %q, want result", i, got2[i].Source)
		}
	}

	// Single-term answers must now also be servable from the term-vector
	// cache: same term, different k misses the result cache but hits the
	// vector cache.
	a, _ := batch.QueryModePinnedCtx(context.Background(), pin, ir.NewQuery("olap"), 7, core.ModeAuthority)
	if a.Source != SourceTerm {
		t.Errorf("k=7 olap after batch: source %q, want term", a.Source)
	}
}

// TestQueryBatchSolveCount: a cold batch of N unique queries is one
// Solve — the acceptance metric behind afq_kernel_solves_total — with
// Columns equal to the unique queries that have a base set.
func TestQueryBatchSolveCount(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})
	eng.GlobalRank() // take the warm-start solve out of the picture

	var solves, columns int
	eng.SetSolveHook(func(st core.SolveStats) {
		solves++
		columns += st.Columns
	})
	defer eng.SetSolveHook(nil)

	unique := []string{"olap", "xml", "mining", "query", "index", "search", "web", "join", "processing"}
	terms := append(append([]string(nil), unique...), unique...) // 18 queries, 9 unique
	qs := make([]*ir.Query, len(terms))
	ks := make([]int, len(terms))
	for i, tm := range terms {
		qs[i] = ir.NewQuery(tm)
		ks[i] = 10
	}
	// Expected accounting, derived from the index: unique misses become
	// columns of one Solve; empty-base queries short-circuit without a
	// kernel column.
	wantColumns := 0
	for _, tm := range unique {
		if len(eng.Pin().Corpus().Index().BaseSet(ir.NewQuery(tm))) > 0 {
			wantColumns++
		}
	}
	if wantColumns != len(unique) {
		t.Fatalf("%d of the %d unique terms have a base set, want all", wantColumns, len(unique))
	}
	if _, err := c.QueryBatchModePinnedCtx(context.Background(), eng.Pin(), qs, ks, nil); err != nil {
		t.Fatal(err)
	}
	if solves != 1 || columns != wantColumns {
		t.Fatalf("solves = %d (want 1), columns = %d (want %d)", solves, columns, wantColumns)
	}
}

// TestQueryBatchArityPanics: ks must pair 1:1 with qs.
func TestQueryBatchArityPanics(t *testing.T) {
	_, eng := testEngine(t, rank.Options{})
	c := New(eng, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ks arity should panic")
		}
	}()
	c.QueryBatchModePinnedCtx(context.Background(), eng.Pin(), []*ir.Query{ir.NewQuery("olap")}, nil, nil)
}

// TestBatchColumnsWarmStart: after a rates bump a batch's single-term
// columns are solved in one kernel execution, each from the vector its
// term had under the replaced rates.
func TestBatchColumnsWarmStart(t *testing.T) {
	tight := rank.Options{Threshold: 5e-14, MaxIters: 5000}
	ds, eng := testEngine(t, tight)
	c := New(eng, Options{})

	qs := []*ir.Query{ir.NewQuery("olap"), ir.NewQuery("xml"), ir.NewQuery("mining")}
	ks := []int{10, 10, 10}
	batch := func() {
		t.Helper()
		if _, err := c.QueryBatchModePinnedCtx(context.Background(), eng.Pin(), qs, ks, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Version 1 starts from the global PageRank: nothing was donated, so
	// it must not count as warm-started.
	eng.SetSolveHook(func(st core.SolveStats) {
		if st.WarmStarted {
			t.Errorf("first batch reported warm-started without a donation")
		}
	})
	batch()

	if err := eng.SetRates(perturb(t, ds.Rates)); err != nil {
		t.Fatal(err)
	}

	var solves int
	eng.SetSolveHook(func(st core.SolveStats) {
		solves++
		if !st.WarmStarted {
			t.Errorf("batch after the publish not warm-started")
		}
		if st.Columns != len(qs) {
			t.Errorf("Columns = %d, want %d", st.Columns, len(qs))
		}
	})
	batch()
	eng.SetSolveHook(nil)
	if solves != 1 {
		t.Fatalf("batch after the publish ran %d kernel executions, want 1", solves)
	}
	if s := c.Stats(); s.WarmStarts != 3 {
		t.Errorf("warm starts = %d, want 3", s.WarmStarts)
	}

	// The refreshed vectors serve version-2 queries from cache.
	if a := query(c, ir.NewQuery("olap"), 5); a.Source != SourceTerm {
		t.Errorf("post-batch query source %q, want term", a.Source)
	}
}

// TestBatchVsPublishRace is the satellite -race hammer: concurrent rate
// publications, batch queries (whose columns take and give donations
// outside the flight group) and single queries against one cache,
// verifying nothing tears and every answer carries a version that was
// actually published.
func TestBatchVsPublishRace(t *testing.T) {
	ds, eng := testEngine(t, rank.Options{Threshold: 1e-4, MaxIters: 60})
	c := New(eng, Options{})

	var wg, pubWg sync.WaitGroup
	stop := make(chan struct{})

	// Publisher: alternates between two valid rate assignments.
	pubWg.Add(1)
	go func() {
		defer pubWg.Done()
		alt := perturb(t, ds.Rates)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := ds.Rates
			if i%2 == 0 {
				r = alt
			}
			if err := eng.SetRates(r); err != nil {
				t.Errorf("SetRates: %v", err)
				return
			}
		}
	}()

	// Batch queriers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := []*ir.Query{
				ir.NewQuery("olap"), ir.NewQuery("xml"),
				ir.NewQuery("mining", "query"), ir.NewQuery("olap"),
			}
			ks := []int{5, 5, 5, 5}
			for j := 0; j < 40; j++ {
				pin := eng.Pin()
				answers, err := c.QueryBatchModePinnedCtx(context.Background(), pin, qs, ks, nil)
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				for i, a := range answers {
					if a == nil {
						t.Errorf("batch answer %d nil without error", i)
						return
					}
					if a.Version > eng.RatesVersion() {
						t.Errorf("answer version %d from the future", a.Version)
						return
					}
				}
			}
		}()
	}

	// Single queriers riding alongside.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 60; j++ {
				a := query(c, ir.NewQuery("olap"), 5)
				if a == nil || len(a.Results) == 0 {
					t.Error("single query returned empty answer")
					return
				}
			}
		}()
	}

	// Let the queriers finish, then stop the publisher.
	wg.Wait()
	close(stop)
	pubWg.Wait()
}

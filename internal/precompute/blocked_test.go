package precompute

import (
	"fmt"
	"math"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// buildTestTerms is a vocabulary slice wide enough to exercise a full
// group of core.DefaultBlockSize terms AND a ragged final one.
var buildTestTerms = []string{
	"olap", "xml", "mining", "query", "optimization", "index",
	"search", "database", "web", "stream", "join",
}

// assertStoresByteEqual compares two stores term by term at the bit
// level: identical term sets, identical Z mass, and per-term entry
// lists equal node-for-node with math.Float64bits score equality. This
// is the store-level face of the kernel's per-column bit-identity
// contract — gob bytes are NOT compared because gob serializes maps in
// nondeterministic order.
func assertStoresByteEqual(t *testing.T, label string, want, got *Store) {
	t.Helper()
	if want.Terms() != got.Terms() {
		t.Fatalf("%s: term counts differ: %d vs %d", label, want.Terms(), got.Terms())
	}
	for term, wtd := range want.terms {
		gtd, ok := got.terms[term]
		if !ok {
			t.Fatalf("%s: term %q missing from blocked store", label, term)
		}
		if math.Float64bits(wtd.Z) != math.Float64bits(gtd.Z) {
			t.Fatalf("%s: term %q Z differs: %v vs %v", label, term, wtd.Z, gtd.Z)
		}
		if len(wtd.Entries) != len(gtd.Entries) {
			t.Fatalf("%s: term %q entry counts differ: %d vs %d",
				label, term, len(wtd.Entries), len(gtd.Entries))
		}
		for i := range wtd.Entries {
			w, g := wtd.Entries[i], gtd.Entries[i]
			if w.Node != g.Node {
				t.Fatalf("%s: term %q entry %d node differs: %d vs %d",
					label, term, i, w.Node, g.Node)
			}
			if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
				t.Fatalf("%s: term %q entry %d (node %d) score bits differ: %v vs %v",
					label, term, i, w.Node, w.Score, g.Score)
			}
		}
	}
}

// oneTermPerSolve builds the store the way a build without grouping
// would: every term through its own Build, so its own one-column solve.
func oneTermPerSolve(eng *core.Engine, topK int) *Store {
	st := &Store{terms: make(map[string]termData)}
	for _, tm := range buildTestTerms {
		for name, td := range Build(eng, []string{tm}, BuildOptions{TopK: topK}).terms {
			st.terms[name] = td
		}
	}
	return st
}

// TestBuildBlockedByteEqual is the acceptance check for the grouped
// precompute path: the store built through multi-column solves is
// byte-equal — per term, bit-for-bit — to one built a term at a time,
// for the full group, the ragged final group, and the concurrent build.
func TestBuildBlockedByteEqual(t *testing.T) {
	eng, _ := testEngine(t)
	serial := oneTermPerSolve(eng, 0)
	for _, workers := range []int{1, 3} {
		assertStoresByteEqual(t, fmt.Sprintf("workers=%d", workers), serial,
			Build(eng, buildTestTerms, BuildOptions{Workers: workers}))
	}
}

// TestBuildBlockedTruncated: TopK truncation composes with grouping —
// truncated grouped and truncated term-at-a-time stores agree
// bit-for-bit.
func TestBuildBlockedTruncated(t *testing.T) {
	eng, _ := testEngine(t)
	assertStoresByteEqual(t, "topk25", oneTermPerSolve(eng, 25), Build(eng, buildTestTerms, BuildOptions{TopK: 25}))
}

// TestBuildBlockedSolveCount: an N-term build fires the solve hook once
// per group of core.DefaultBlockSize terms holding at least one
// indexable term, each firing carrying Columns = that group's count of
// nonzero-base-mass terms. Expectations are derived from the index
// itself because zero-mass terms (the vocabulary deliberately contains
// some) never occupy a column.
func TestBuildBlockedSolveCount(t *testing.T) {
	eng, _ := testEngine(t)
	const bs = core.DefaultBlockSize
	// The forced GlobalRank warm start does not route through the solve
	// hook, so only groups count.
	wantSolves, wantColumns := 0, 0
	for lo := 0; lo < len(buildTestTerms); lo += bs {
		hi := lo + bs
		if hi > len(buildTestTerms) {
			hi = len(buildTestTerms)
		}
		nonzero := 0
		for _, tm := range buildTestTerms[lo:hi] {
			if len(eng.Index().BaseSet(ir.NewQuery(tm))) > 0 {
				nonzero++
			}
		}
		if nonzero > 0 {
			wantSolves++
			wantColumns += nonzero
		}
	}
	var solves, columns int
	eng.SetSolveHook(func(st core.SolveStats) {
		solves++
		columns += st.Columns
	})
	Build(eng, buildTestTerms, BuildOptions{})
	if solves != wantSolves || columns != wantColumns {
		t.Fatalf("solves = %d (want %d), columns = %d (want %d)",
			solves, wantSolves, columns, wantColumns)
	}
}

// BenchmarkPrecomputeBlocked measures the build, reporting ns/term and
// kernel solves (⌈N/core.DefaultBlockSize⌉ executions for N terms).
func BenchmarkPrecomputeBlocked(b *testing.B) {
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 11
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{
		Rank: rank.Options{Threshold: 1e-10, MaxIters: 2000},
	})
	if err != nil {
		b.Fatal(err)
	}
	eng.GlobalRank() // exclude the one-time warm-start solve
	wantTerms := Build(eng, buildTestTerms, BuildOptions{}).Terms()
	var solves, iters int
	eng.SetSolveHook(func(st core.SolveStats) {
		solves++
		iters += st.Iterations
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := Build(eng, buildTestTerms, BuildOptions{})
		if st.Terms() != wantTerms {
			b.Fatalf("built %d terms, want %d", st.Terms(), wantTerms)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buildTestTerms)), "ns/term")
	b.ReportMetric(float64(solves)/float64(b.N), "solves/build")
	b.ReportMetric(float64(iters)/float64(solves), "sweeps/solve")
}

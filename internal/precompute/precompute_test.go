package precompute

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
	"authorityflow/internal/storage"
)

func testEngine(t testing.TB) (*core.Engine, *datagen.Dataset) {
	t.Helper()
	cfg := datagen.DBLPTopConfig().Scale(0.02)
	cfg.Seed = 11
	ds, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tight threshold so linear-combination comparisons are exact up to
	// fixpoint tolerance.
	eng, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{
		Rank: rank.Options{Threshold: 1e-10, MaxIters: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, ds
}

// rankQ is one uncached authority solve of q.
func rankQ(t testing.TB, eng *core.Engine, q *ir.Query) *core.RankResult {
	t.Helper()
	rs, err := eng.Pin().Solve(context.Background(), core.SolveSpec{Queries: []*ir.Query{q}})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

func TestBuildAndSingleTermExact(t *testing.T) {
	eng, _ := testEngine(t)
	st := Build(eng, []string{"olap", "xml", "nonexistentzzz"}, BuildOptions{})
	if st.Terms() != 2 {
		t.Fatalf("terms = %d, want 2 (empty-base term skipped)", st.Terms())
	}
	if !st.Has("olap") || st.Has("nonexistentzzz") {
		t.Error("Has misreports")
	}
	// Single-term query answered from the store matches a fresh run.
	q := ir.NewQuery("olap")
	fresh := rankQ(t, eng, q)
	got, complete := st.Query(q, 10)
	if !complete {
		t.Error("complete should be true")
	}
	want := fresh.TopK(10)
	if len(got) != len(want) {
		t.Fatalf("lengths: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Node != want[i].Node {
			t.Fatalf("rank %d: %d vs %d", i, got[i].Node, want[i].Node)
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-8 {
			t.Fatalf("rank %d score: %v vs %v", i, got[i].Score, want[i].Score)
		}
	}
}

// TestLinearity is the heart of [BHP04] precomputation: an untruncated
// store answers MULTI-keyword (and re-weighted) queries identically to
// a fresh ObjectRank2 execution, because the fixpoint is linear in the
// jump distribution.
func TestLinearity(t *testing.T) {
	eng, _ := testEngine(t)
	st := Build(eng, []string{"olap", "xml", "mining", "query", "optimization"}, BuildOptions{})

	queries := []*ir.Query{
		ir.NewQuery("olap", "xml"),
		ir.NewQuery("query", "optimization"),
		ir.NewQuery("olap", "mining", "xml"),
	}
	// Also a re-weighted query, as produced by content reformulation.
	wq := ir.NewQuery("olap")
	wq.Add("xml", 0.3)
	queries = append(queries, wq)

	for _, q := range queries {
		fresh := rankQ(t, eng, q)
		got, complete := st.Query(q, 20)
		if !complete {
			t.Fatalf("%v: store incomplete", q)
		}
		want := fresh.TopK(20)
		for i := range got {
			if got[i].Node != want[i].Node {
				t.Fatalf("%v rank %d: node %d vs %d", q, i, got[i].Node, want[i].Node)
			}
			if math.Abs(got[i].Score-want[i].Score) > 1e-7 {
				t.Fatalf("%v rank %d: score %v vs %v", q, i, got[i].Score, want[i].Score)
			}
		}
	}
}

func TestTruncatedStoreApproximates(t *testing.T) {
	eng, _ := testEngine(t)
	full := Build(eng, []string{"olap", "xml"}, BuildOptions{})
	trunc := Build(eng, []string{"olap", "xml"}, BuildOptions{TopK: 50})
	if trunc.TopK() != 50 {
		t.Errorf("TopK = %d", trunc.TopK())
	}
	q := ir.NewQuery("olap", "xml")
	want, _ := full.Query(q, 10)
	got, _ := trunc.Query(q, 10)
	// Truncation at 50 must preserve most of the top-10.
	inWant := map[graph.NodeID]bool{}
	for _, r := range want {
		inWant[r.Node] = true
	}
	hits := 0
	for _, r := range got {
		if inWant[r.Node] {
			hits++
		}
	}
	if hits < 8 {
		t.Errorf("truncated store agrees on only %d/10 of the top-10", hits)
	}
}

func TestQueryUnknownTerms(t *testing.T) {
	eng, _ := testEngine(t)
	st := Build(eng, []string{"olap"}, BuildOptions{})
	// Entirely unknown query: nothing to combine.
	got, complete := st.Query(ir.NewQuery("zebra"), 5)
	if complete || got != nil {
		t.Errorf("unknown query: %v, %v", got, complete)
	}
	// Mixed query: combination proceeds but reports incompleteness.
	got, complete = st.Query(ir.NewQuery("olap", "zebra"), 5)
	if complete {
		t.Error("mixed query should be incomplete")
	}
	if len(got) == 0 {
		t.Error("mixed query should still rank the known term")
	}
	// Zero-weight terms are ignored.
	q := ir.NewQuery()
	q.SetWeight("olap", 0)
	if got, _ := st.Query(q, 5); got != nil {
		t.Errorf("zero-weight query = %v", got)
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	eng, _ := testEngine(t)
	terms := []string{"olap", "xml", "mining", "query", "index", "search"}
	serial := Build(eng, terms, BuildOptions{})
	parallel := Build(eng, terms, BuildOptions{Workers: 4})
	if serial.Terms() != parallel.Terms() {
		t.Fatalf("term counts differ: %d vs %d", serial.Terms(), parallel.Terms())
	}
	q := ir.NewQuery("olap", "mining")
	a, _ := serial.Query(q, 10)
	b, _ := parallel.Query(q, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel build diverges at rank %d", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	eng, _ := testEngine(t)
	st := Build(eng, []string{"olap", "xml"}, BuildOptions{TopK: 100})
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Terms() != st.Terms() || got.TopK() != st.TopK() {
		t.Fatal("metadata lost")
	}
	q := ir.NewQuery("olap", "xml")
	a, _ := st.Query(q, 10)
	b, _ := got.Query(q, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round trip diverges at rank %d", i)
		}
	}
	if !got.ValidFor(eng) {
		t.Error("loaded store should be valid for the engine it was built on")
	}

	path := filepath.Join(t.TempDir(), "store.gob")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file should error")
	}
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Error("garbage should error")
	}
}

// failAfter passes n bytes through to w and then fails every write.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskGone = errors.New("disk gone mid-save")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errDiskGone
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestSaveFileFailureKeepsPreviousStore: a save that fails — its writer
// dying mid-stream, or the temp file not creatable at all — returns the
// error and leaves the store previously at the path loadable and
// unchanged, with no temp file behind it.
func TestSaveFileFailureKeepsPreviousStore(t *testing.T) {
	eng, _ := testEngine(t)
	first := Build(eng, []string{"olap"}, BuildOptions{TopK: 50})
	second := Build(eng, []string{"olap", "xml", "mining"}, BuildOptions{})
	path := filepath.Join(t.TempDir(), "store.gob")
	if err := first.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	stillFirst := func(after string) {
		t.Helper()
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: previous store no longer loads: %v", after, err)
		}
		if got.Terms() != first.Terms() || got.TopK() != first.TopK() || got.Has("xml") {
			t.Fatalf("%s: file holds %d terms (topK %d), want the previous store's %d (topK %d)",
				after, got.Terms(), got.TopK(), first.Terms(), first.TopK())
		}
	}

	// The call SaveFile makes, with the file wrapped in a writer that
	// dies a few hundred bytes into the gob stream.
	err := storage.AtomicWriteFile(path, func(w io.Writer) error {
		return second.Save(&failAfter{w: w, n: 256})
	})
	if !errors.Is(err, errDiskGone) {
		t.Fatalf("mid-stream failure: err = %v, want the writer's", err)
	}
	stillFirst("mid-stream failure")
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: stat err = %v", err)
	}

	// SaveFile itself, unable to create its temp file: it must not have
	// touched path on the way (a create-and-truncate of path would).
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := second.SaveFile(path); err == nil {
		t.Fatal("SaveFile succeeded with its temp path occupied: it does not write through a temp file")
	}
	stillFirst("failed SaveFile")
}

func TestValidFor(t *testing.T) {
	eng, _ := testEngine(t)
	st := Build(eng, []string{"olap"}, BuildOptions{})
	if !st.ValidFor(eng) {
		t.Fatal("store should be valid for its own engine")
	}
	// Rate change invalidates.
	r := eng.Rates()
	cites, _ := eng.Graph().Schema().EdgeTypeByRole("cites")
	r.Set(cites, graph.Forward, 0.5)
	if err := eng.SetRates(r); err != nil {
		t.Fatal(err)
	}
	if st.ValidFor(eng) {
		t.Error("store should be invalid after rate change")
	}
	// Rates accessor returns a copy.
	v := st.Rates()
	v[0] = 42
	if st.Rates()[0] == 42 {
		t.Error("Rates leaked internal storage")
	}
}

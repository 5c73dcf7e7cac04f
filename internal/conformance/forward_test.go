package conformance

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"authorityflow/internal/datagen"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/storage"
)

// The forward table (ir.Index.DocTerms) is what Eq. 11 reads instead of
// tokenizing a node's text, so for every node it must hold exactly the
// distinct terms ir.TokenizeFiltered finds in that text; and Eq. 3's
// document length, which ir.FromParts derives from the postings, must
// be the node's token count — for an index built from the graph and
// for one a snapshot load reassembled with ir.FromParts.

// forwardMismatch reports the first node of g whose forward-table row,
// as terms renders it, is not the sorted set of TokenizeFiltered of its
// text.
func forwardMismatch(g *graph.Graph, terms func(v graph.NodeID) []string) error {
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		want := ir.TokenizeFiltered(g.Text(v))
		slices.Sort(want)
		want = slices.Compact(want)
		if got := terms(v); !slices.Equal(got, want) {
			return fmt.Errorf("node %d: forward table %q, tokenizer %q", v, got, want)
		}
	}
	return nil
}

// lengthMismatch reports the first posting of ix whose BM25 weight
// W(v, t) is not Eq. 3's with each node's length len(ir.Tokenize) of
// its text and avdl their mean. The reference is recomputed here, so it
// is held within 1e-12 relative instead of bits; one token of length
// moves a weight by orders of magnitude more.
func lengthMismatch(g *graph.Graph, ix *ir.Index) error {
	dl := make([]int, g.NumNodes())
	total := 0
	for v := range dl {
		dl[v] = len(ir.Tokenize(g.Text(graph.NodeID(v))))
		total += dl[v]
	}
	avdl := float64(total) / float64(len(dl))
	k1, b := ix.Params().K1, ix.Params().B
	start, posts := ix.Postings()
	for id, term := range ix.Terms() {
		idf := ix.IDF(term)
		for _, p := range posts[start[id]:start[id+1]] {
			tf := float64(p.TF)
			want := idf * ((k1 + 1) * tf / (k1*((1-b)+b*float64(dl[p.Doc])/avdl) + tf))
			if got := ix.Weight(p.Doc, term); !(math.Abs(got-want) <= 1e-12*want) {
				return fmt.Errorf("node %d: W(%q) = %v, want %v at %d tokens", p.Doc, term, got, want, dl[p.Doc])
			}
		}
	}
	return nil
}

// rowTerms renders ix's forward-table rows as terms.
func rowTerms(ix *ir.Index) func(v graph.NodeID) []string {
	return func(v graph.NodeID) []string {
		var out []string
		for _, id := range ix.DocTerms(int32(v)) {
			out = append(out, ix.Term(id))
		}
		return out
	}
}

// reloaded is ix after an AFQSNAP1 round trip with g: the index
// ir.FromParts reassembles.
func reloaded(t *testing.T, g *graph.Graph, rates *graph.Rates, ix *ir.Index) *ir.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.WriteSnapshot(&buf, &datagen.Dataset{Name: "forward", Graph: g, Rates: rates}, ix); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := storage.ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestForwardTableMatchesTokenizer: over the conformance seeds and
// dblptop at the benchmark's scale 1.0, built and reloaded, every
// node's forward-table row is its text's filtered token set, and its
// BM25 weights read its length in tokens.
func TestForwardTableMatchesTokenizer(t *testing.T) {
	type corpus struct {
		name  string
		g     *graph.Graph
		rates *graph.Rates
		ix    *ir.Index
	}
	var corpora []corpus
	for seed := int64(1); seed <= 5; seed++ {
		w := newWorld(t, seed)
		corpora = append(corpora, corpus{fmt.Sprintf("seed%d", seed), w.g, w.rates, w.pin.Corpus().Index()})
	}
	ds, err := datagen.GenerateDBLP(datagen.DBLPTopConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	ix := ir.BuildIndex(g.NumNodes(), func(i int) string { return g.Text(graph.NodeID(i)) }, ir.DefaultBM25())
	corpora = append(corpora, corpus{"dblptop", g, ds.Rates, ix})
	for _, c := range corpora {
		for _, loaded := range []bool{false, true} {
			ix := c.ix
			if loaded {
				ix = reloaded(t, c.g, c.rates, ix)
			}
			if err := forwardMismatch(c.g, rowTerms(ix)); err != nil {
				t.Errorf("%s (loaded %v): %v", c.name, loaded, err)
			}
			if err := lengthMismatch(c.g, ix); err != nil {
				t.Errorf("%s (loaded %v): %v", c.name, loaded, err)
			}
		}
	}
}

// TestForwardTableBite checks forwardMismatch can fail: a forward
// table that lost one term of one node is refused.
func TestForwardTableBite(t *testing.T) {
	w := newWorld(t, 1)
	ix := w.pin.Corpus().Index()
	full := rowTerms(ix)
	victim := graph.NodeID(-1)
	for v := graph.NodeID(0); int(v) < w.g.NumNodes(); v++ {
		if len(ix.DocTerms(int32(v))) > 0 {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Fatal("world has no node with a content term")
	}
	dropped := func(v graph.NodeID) []string {
		row := full(v)
		if v == victim {
			row = row[1:]
		}
		return row
	}
	if err := forwardMismatch(w.g, dropped); err == nil {
		t.Errorf("node %d lost a term, still called a match", victim)
	}
}

// TestDocLengthBite checks lengthMismatch can fail: an index whose
// postings give one node one token too many is refused.
func TestDocLengthBite(t *testing.T) {
	w := newWorld(t, 1)
	ix := w.pin.Corpus().Index()
	if err := lengthMismatch(w.g, ix); err != nil {
		t.Fatal(err)
	}
	start, posts := ix.Postings()
	bumped := slices.Clone(posts)
	bumped[0].TF++
	bad, err := ir.FromParts(ix.Params(), ix.NumDocs(), ix.Terms(), start, bumped)
	if err != nil {
		t.Fatal(err)
	}
	if err := lengthMismatch(w.g, bad); err == nil {
		t.Errorf("node %d has one token too many, still called a match", posts[0].Doc)
	}
}

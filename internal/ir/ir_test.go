package ir

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Data Cube: A Relational Aggregation Operator", []string{"data", "cube", "a", "relational", "aggregation", "operator"}},
		{"Group-By, Cross-Tab, and Sub-Total.", []string{"group", "by", "cross", "tab", "and", "sub", "total"}},
		{"OLAP", []string{"olap"}},
		{"", nil},
		{"  ,.;  ", nil},
		{"ICDE 1997 Birmingham", []string{"icde", "1997", "birmingham"}},
		{"x", []string{"x"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeFiltered(t *testing.T) {
	got := TokenizeFiltered("The Range Queries in OLAP Data Cubes")
	want := []string{"range", "queries", "olap", "data", "cubes"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TokenizeFiltered = %v, want %v", got, want)
	}
	if !IsStopword("the") || IsStopword("olap") {
		t.Error("IsStopword misclassifies")
	}
}

func TestQueryBasics(t *testing.T) {
	q := NewQuery("OLAP")
	if q.Len() != 1 || termWeight(q, "olap") != 1 {
		t.Fatalf("NewQuery(OLAP) = %v", q)
	}
	q = ParseQuery("query optimization")
	if q.Len() != 2 || !q.Has("query") || !q.Has("OPTIMIZATION") {
		t.Fatalf("ParseQuery = %v", q)
	}
	q.Add("olap", 0.5)
	if w := termWeight(q, "olap"); w != 0.5 {
		t.Errorf("Weight(olap) = %v", w)
	}
	q.Add("olap", 0.25)
	if w := termWeight(q, "olap"); w != 0.75 {
		t.Errorf("Weight(olap) after second Add = %v", w)
	}
	q.SetWeight("olap", 2)
	if w := termWeight(q, "olap"); w != 2 {
		t.Errorf("SetWeight failed: %v", w)
	}
	if got := q.AverageWeight(); math.Abs(got-(1+1+2)/3.0) > 1e-12 {
		t.Errorf("AverageWeight = %v", got)
	}
	if s := q.String(); !strings.Contains(s, "olap:2.00") {
		t.Errorf("String = %q", s)
	}
	cp := q.Clone()
	cp.SetWeight("query", 9)
	if termWeight(q, "query") == 9 {
		t.Error("Clone not deep")
	}
	// Duplicate keywords in the constructor merge.
	q2 := NewQuery("xml", "xml")
	if q2.Len() != 1 || termWeight(q2, "xml") != 2 {
		t.Errorf("duplicate keywords: %v", q2)
	}
	// Terms/Weights stay aligned and are copies.
	terms, weights := q.Terms(), q.Weights()
	if len(terms) != len(weights) {
		t.Fatal("Terms/Weights misaligned")
	}
	terms[0] = "mutated"
	if q.Terms()[0] == "mutated" {
		t.Error("Terms returned internal storage")
	}
}

func buildTestIndex() *Index {
	docs := []string{
		"Index Selection for OLAP",
		"Range Queries in OLAP Data Cubes",
		"Modeling Multidimensional Databases",
		"Data Cube A Relational Aggregation Operator",
		"", // empty document
		"olap olap olap olap",
	}
	return BuildIndex(len(docs), func(i int) string { return docs[i] }, DefaultBM25())
}

func TestIndexStats(t *testing.T) {
	ix := buildTestIndex()
	if ix.NumDocs() != 6 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if ix.DF("olap") != 3 {
		t.Errorf("DF(olap) = %d", ix.DF("olap"))
	}
	if ix.DF("nonexistent") != 0 {
		t.Errorf("DF(nonexistent) = %d", ix.DF("nonexistent"))
	}
	if ix.TF(5, "olap") != 4 {
		t.Errorf("TF(5, olap) = %d", ix.TF(5, "olap"))
	}
	if ix.TF(2, "olap") != 0 {
		t.Errorf("TF(2, olap) = %d", ix.TF(2, "olap"))
	}
	if ix.avdl <= 0 {
		t.Error("avdl should be positive")
	}
	if ix.NumTerms() == 0 {
		t.Error("vocabulary should be non-empty")
	}
}

func TestIDFMonotonicInDF(t *testing.T) {
	ix := buildTestIndex()
	// "olap" (df=3) must have lower IDF than "modeling" (df=1).
	if ix.IDF("olap") >= ix.IDF("modeling") {
		t.Errorf("IDF(olap)=%v should be < IDF(modeling)=%v", ix.IDF("olap"), ix.IDF("modeling"))
	}
	if ix.IDF("nonexistent") != 0 {
		t.Errorf("IDF of unseen term = %v", ix.IDF("nonexistent"))
	}
	// A term in more than half the docs is clamped to the floor, not
	// negative.
	docs := []string{"x a", "x b", "x c", "d"}
	ix2 := BuildIndex(len(docs), func(i int) string { return docs[i] }, DefaultBM25())
	if idf := ix2.IDF("x"); idf <= 0 {
		t.Errorf("clamped IDF = %v, want > 0", idf)
	}
}

func TestWeightProperties(t *testing.T) {
	ix := buildTestIndex()
	// Weight is 0 for absent terms and positive for present ones.
	if w := ix.Weight(2, "olap"); w != 0 {
		t.Errorf("Weight(absent) = %v", w)
	}
	if w := ix.Weight(0, "olap"); w <= 0 {
		t.Errorf("Weight(present) = %v", w)
	}
	// BM25 tf saturation: more occurrences weigh more, but sublinearly.
	w1 := ix.weightTF(0, 1)
	w2 := ix.weightTF(0, 2)
	w4 := ix.weightTF(0, 4)
	if !(w1 < w2 && w2 < w4) {
		t.Errorf("tf factor not monotone: %v %v %v", w1, w2, w4)
	}
	if w2-w1 <= w4-w2 {
		// strictly concave in tf
		t.Errorf("tf factor not saturating: %v %v %v", w1, w2, w4)
	}
}

func TestScoreAndBaseSet(t *testing.T) {
	ix := buildTestIndex()
	q := NewQuery("OLAP")
	base := ix.BaseSet(q)
	wantDocs := []int32{0, 1, 5}
	if len(base) != len(wantDocs) {
		t.Fatalf("BaseSet = %v", base)
	}
	for i, sd := range base {
		if sd.Doc != wantDocs[i] {
			t.Fatalf("BaseSet docs = %v, want %v", base, wantDocs)
		}
		if sd.Score <= 0 {
			t.Errorf("doc %d has non-positive score %v", sd.Doc, sd.Score)
		}
		if got := ix.Score(sd.Doc, q); math.Abs(got-sd.Score) > 1e-12 {
			t.Errorf("Score(%d) = %v, BaseSet score = %v", sd.Doc, got, sd.Score)
		}
	}
	// Non-members score 0.
	if s := ix.Score(2, q); s != 0 {
		t.Errorf("Score(non-member) = %v", s)
	}
	// Zero- and negative-weight terms contribute nothing.
	q2 := NewQuery()
	q2.SetWeight("olap", 0)
	if got := ix.BaseSet(q2); len(got) != 0 {
		t.Errorf("BaseSet with zero weights = %v", got)
	}
}

func TestMultiTermScoring(t *testing.T) {
	ix := buildTestIndex()
	q := NewQuery("data", "cubes")
	// Doc 1 contains both, doc 3 contains only "data".
	s1 := ix.Score(1, q)
	s3 := ix.Score(3, q)
	if s1 <= s3 {
		t.Errorf("two-term doc should outscore one-term doc: %v vs %v", s1, s3)
	}
	base := ix.BaseSet(q)
	if len(base) != 2 {
		t.Fatalf("BaseSet = %v", base)
	}
}

func TestQueryWeightScalesScore(t *testing.T) {
	ix := buildTestIndex()
	q1 := NewQuery("olap")
	q2 := NewQuery()
	q2.SetWeight("olap", 2)
	// With k3=1000 the query-side saturation is nearly linear, so
	// doubling the weight nearly doubles the score.
	r := ix.Score(0, q2) / ix.Score(0, q1)
	if r < 1.9 || r > 2.0 {
		t.Errorf("weight-2 score ratio = %v, want ~2", r)
	}
}

// TestDocLenCountsTokens: BM25's document length is the token count,
// not the byte count, whatever the punctuation, spacing or script.
func TestDocLenCountsTokens(t *testing.T) {
	docs := []string{"Group-By, Cross-Tab, and Sub-Total.", "日本語 text   mixed ascii", "", "olap olap"}
	ix := BuildIndex(len(docs), func(i int) string { return docs[i] }, DefaultBM25())
	total := 0
	for d, text := range docs {
		want := len(Tokenize(text))
		total += want
		if got := ix.docLen[d]; int(got) != want {
			t.Errorf("doc %d %q: length %d, want %d tokens", d, text, got, want)
		}
	}
	if want := float64(total) / float64(len(docs)); ix.avdl != want {
		t.Errorf("avdl = %v, want %v", ix.avdl, want)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := BuildIndex(0, nil, DefaultBM25())
	if ix.NumDocs() != 0 || ix.avdl != 0 {
		t.Error("empty index stats wrong")
	}
	if got := ix.BaseSet(NewQuery("olap")); len(got) != 0 {
		t.Errorf("BaseSet on empty index = %v", got)
	}
}

// TestPropertyScoreNonNegative: IRScore is non-negative for any
// documents and any single-term query drawn from the corpus.
func TestPropertyScoreNonNegative(t *testing.T) {
	prop := func(texts []string, probe string) bool {
		if len(texts) == 0 {
			return true
		}
		ix := BuildIndex(len(texts), func(i int) string { return texts[i] }, DefaultBM25())
		q := NewQuery(probe)
		for d := 0; d < len(texts); d++ {
			if ix.Score(int32(d), q) < 0 {
				return false
			}
		}
		for _, sd := range ix.BaseSet(q) {
			if sd.Score < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBaseSetMatchesContainment: a document is in BaseSet(q)
// iff it contains at least one positive-weight query term.
func TestPropertyBaseSetMatchesContainment(t *testing.T) {
	corpus := []string{
		"olap cube range", "xml indexing search", "mining graphs",
		"olap xml", "ranked keyword search", "",
	}
	ix := BuildIndex(len(corpus), func(i int) string { return corpus[i] }, DefaultBM25())
	prop := func(pick uint8) bool {
		words := []string{"olap", "xml", "search", "zzz"}
		q := NewQuery(words[int(pick)%len(words)])
		inBase := make(map[int32]bool)
		for _, sd := range ix.BaseSet(q) {
			inBase[sd.Doc] = true
		}
		for d, text := range corpus {
			contains := false
			for _, tok := range Tokenize(text) {
				if q.Has(tok) {
					contains = true
					break
				}
			}
			if contains != inBase[int32(d)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTermsWithDF(t *testing.T) {
	ix := buildTestIndex()
	all := ix.TermsWithDF(1)
	if len(all) == 0 {
		t.Fatal("no terms")
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatal("terms not sorted")
		}
	}
	for _, term := range all {
		if IsStopword(term) || len(term) <= 1 {
			t.Errorf("term %q should be filtered", term)
		}
	}
	// "olap" has df=3, so it survives minDF=3 but "modeling" (df=1)
	// does not.
	df3 := ix.TermsWithDF(3)
	found := map[string]bool{}
	for _, term := range df3 {
		found[term] = true
	}
	if !found["olap"] {
		t.Error("olap missing at minDF=3")
	}
	if found["modeling"] {
		t.Error("modeling present at minDF=3")
	}
}

func TestCanonicalQuery(t *testing.T) {
	a := NewQuery("olap", "cube").Canonical()
	b := NewQuery("cube", "olap").Canonical()
	if a != b {
		t.Errorf("order-sensitive canonical form: %q vs %q", a, b)
	}
	w := NewQuery("olap", "cube")
	w.SetWeight("cube", 0.5)
	if w.Canonical() == a {
		t.Error("weight change did not change canonical form")
	}
	for _, dropped := range []float64{-1, 0} {
		q := NewQuery("olap")
		q.SetWeight("dropped", dropped)
		if q.Canonical() != NewQuery("olap").Canonical() {
			t.Errorf("weight-%g term should not affect the canonical form", dropped)
		}
	}
}

// termWeight is q's weight of term t, 0 when t is not a query term.
func termWeight(q *Query, t string) float64 {
	if i, ok := q.index[t]; ok {
		return q.weights[i]
	}
	return 0
}

package ir

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// referenceBaseSet is Eq. 2's base set as a map from document to score,
// summed in query-term order, sorted by document at the end: the
// independent reference the merging BaseSet is held to.
func referenceBaseSet(ix *Index, q *Query) []ScoredDoc {
	seen := make(map[int32]float64)
	for i, t := range q.terms {
		w := q.weights[i]
		if w <= 0 {
			continue
		}
		ps := ix.rowOf(t)
		if len(ps) == 0 {
			continue
		}
		idf := ix.IDF(t)
		qs := ix.QTFSat(w)
		for _, p := range ps {
			seen[p.Doc] += qs * idf * ix.weightTF(p.Doc, float64(p.TF))
		}
	}
	out := make([]ScoredDoc, 0, len(seen))
	for d, s := range seen {
		out = append(out, ScoredDoc{Doc: d, Score: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out
}

// fuzzWords is the small vocabulary the random corpora draw from, so
// query terms share documents; "absent" is never indexed.
var fuzzWords = []string{"olap", "cube", "xml", "join", "rank", "flow", "a", "the", "absent"}

// randomCorpus is a corpus of n documents of up to six words each, one
// document per line.
func randomCorpus(rng *rand.Rand, n int) string {
	var b strings.Builder
	for d := 0; d < n; d++ {
		for j, m := 0, rng.Intn(7); j < m; j++ {
			b.WriteString(fuzzWords[rng.Intn(len(fuzzWords)-1)])
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzBaseSet: on any corpus (one document per line) and any weighted
// query — zero and negative weights, absent and repeated terms —
// BaseSet equals the map-and-sort reference Float64bits for
// Float64bits, and DocsWithAny over the positive-weight terms counts it.
func FuzzBaseSet(f *testing.F) {
	f.Add("olap cube\ncube xml\n\nolap olap join", "olap cube xml", []byte{16, 8, 16})
	f.Add("olap\nolap\nolap", "olap absent", []byte{16, 16})
	f.Add("a the olap\nxml", "the a xml olap", []byte{0, 255, 16, 3})
	f.Add("", "olap", []byte{16})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		var q strings.Builder
		weights := make([]byte, 1+rng.Intn(5))
		for j := range weights {
			q.WriteString(fuzzWords[rng.Intn(len(fuzzWords))] + " ")
			weights[j] = byte(rng.Intn(256))
		}
		f.Add(randomCorpus(rng, 1+rng.Intn(40)), q.String(), weights)
	}
	f.Fuzz(func(t *testing.T, corpus, query string, weights []byte) {
		docs := strings.Split(corpus, "\n")
		ix := BuildIndex(len(docs), func(i int) string { return docs[i] }, DefaultBM25())
		q := NewQuery()
		for i, tok := range Tokenize(query) {
			w := 1.0
			if i < len(weights) {
				w = float64(int8(weights[i])) / 16 // -8 .. 7.9375, 0 at 0
			}
			q.Add(tok, w)
		}
		got, want := ix.BaseSet(q), referenceBaseSet(ix, q)
		if len(got) != len(want) {
			t.Fatalf("BaseSet(%v) has %d documents, the reference %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("BaseSet(%v)[%d] = %+v, the reference %+v", q, i, got[i], want[i])
			}
		}
		var positive []string
		for i, w := range q.weights {
			if w > 0 {
				positive = append(positive, q.terms[i])
			}
		}
		if n := ix.DocsWithAny(positive); n != len(want) {
			t.Fatalf("DocsWithAny(%v) = %d, the base set has %d", positive, n, len(want))
		}
	})
}

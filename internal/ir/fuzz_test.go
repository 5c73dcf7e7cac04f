package ir

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize: tokenization never panics, produces only non-empty
// lowercase alphanumeric tokens, and is idempotent (tokenizing the join
// of tokens yields the same tokens).
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"Data Cube: A Relational Aggregation Operator",
		"Group-By, Cross-Tab, and Sub-Total.",
		"ICDE 1997 Birmingham",
		"ünïcode teXT ΣΩ",
		"", "   ", "a-b_c.d",
		"日本語 text mixed ascii",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		toks := Tokenize(text)
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains separator rune %q", tok, r)
				}
			}
			// Lowercasing is idempotent. (Some uppercase runes have no
			// lowercase mapping, so "no IsUpper rune" would be wrong.)
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q not lowercased", tok)
			}
		}
		// Filtered tokenization is a subset.
		filtered := TokenizeFiltered(text)
		if len(filtered) > len(toks) {
			t.Fatalf("filter grew tokens: %d > %d", len(filtered), len(toks))
		}
	})
}

// FuzzQuery: query construction never panics and keeps terms/weights
// aligned for arbitrary inputs.
func FuzzQuery(f *testing.F) {
	f.Add("olap", "data cubes", 0.5)
	f.Add("", "", -1.0)
	f.Add("ünïcode", "ΣΩ 123", 1e300)
	f.Fuzz(func(t *testing.T, kw1, kw2 string, w float64) {
		q := NewQuery(kw1, kw2)
		q.Add(kw1, w)
		q.SetWeight(kw2, w)
		terms, weights := q.Terms(), q.Weights()
		if len(terms) != len(weights) {
			t.Fatal("terms/weights misaligned")
		}
		if q.Len() != len(terms) {
			t.Fatal("Len mismatch")
		}
		_ = q.String()
		_ = q.AverageWeight()
		cp := q.Clone()
		if cp.Len() != q.Len() {
			t.Fatal("clone length mismatch")
		}
	})
}

// FuzzIndexScore: scoring arbitrary documents with arbitrary queries
// never panics and never yields negative or NaN scores for positive
// query weights.
func FuzzIndexScore(f *testing.F) {
	f.Add("olap cubes", "range olap queries", "olap")
	f.Add("", "x", "y")
	f.Fuzz(func(t *testing.T, doc1, doc2, term string) {
		docs := []string{doc1, doc2}
		ix := BuildIndex(len(docs), func(i int) string { return docs[i] }, DefaultBM25())
		q := NewQuery(term)
		for d := int32(0); d < 2; d++ {
			s := ix.Score(d, q)
			if s < 0 || s != s {
				t.Fatalf("score(%d) = %v", d, s)
			}
		}
		for _, sd := range ix.BaseSet(q) {
			if sd.Score < 0 || sd.Score != sd.Score {
				t.Fatalf("base score = %v", sd.Score)
			}
		}
	})
}

// Package ir implements the information-retrieval substrate of
// ObjectRank2 (Section 3 of the paper): tokenization, an inverted index
// over the text of data-graph nodes, Okapi BM25 term weighting
// (Equation 3), query vectors with per-term weights, and the
// IR-weighted base-set computation IRScore(v, Q) = v . Q (Equation 2).
package ir

import (
	"strings"
	"unicode"
)

// Tokenize splits text into lowercase alphanumeric tokens. Hyphens and
// apostrophes inside words are treated as separators ("group-by" yields
// "group" and "by"), matching the keyword sets used in the paper's
// examples.
func Tokenize(text string) []string {
	var tokens []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			tokens = append(tokens, strings.ToLower(text[start:end]))
			start = -1
		}
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(text))
	return tokens
}

// stopwords is a compact English stopword list. Expansion terms are
// drawn from node text (Section 5.1 "ignoring stop words"), so common
// glue words must never enter a reformulated query.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true,
	"at": true, "be": true, "but": true, "by": true, "for": true,
	"from": true, "has": true, "have": true, "in": true, "is": true,
	"it": true, "its": true, "of": true, "on": true, "or": true,
	"that": true, "the": true, "their": true, "this": true, "to": true,
	"was": true, "were": true, "which": true, "with": true, "we": true,
	"using": true, "used": true, "use": true, "can": true, "our": true,
	"these": true, "than": true, "then": true, "via": true, "into": true,
	"over": true, "under": true, "based": true, "new": true, "also": true,
}

// IsStopword reports whether the (lowercase) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// TokenizeFiltered tokenizes text and keeps its content terms: it drops
// stopwords and single-byte tokens. An index's forward table holds each
// document's distinct content terms (Index.DocTerms), so the request
// path reads them there instead of tokenizing.
func TokenizeFiltered(text string) []string {
	toks := Tokenize(text)
	out := toks[:0]
	for _, t := range toks {
		if contentTerm(t) {
			out = append(out, t)
		}
	}
	return out
}

// contentTerm is the predicate of TokenizeFiltered and of the forward
// table: longer than one byte, and not a stopword. Expansion terms
// (Section 5.1) are drawn from content terms only.
func contentTerm(t string) bool { return len(t) > 1 && !stopwords[t] }

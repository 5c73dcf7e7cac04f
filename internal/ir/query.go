package ir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Query is a weighted keyword query: the query vector Q = [w1, ..., wm]
// of Section 3. The paper defines a query as a TUPLE of keywords (order
// matters once weights differ), so terms are kept in insertion order.
// The initial query vector assigns weight 1 to every user keyword;
// reformulation (Section 5.1) appends expansion terms with smaller
// weights and may re-weight existing terms.
type Query struct {
	terms   []string
	weights []float64
	index   map[string]int
}

// NewQuery builds a query from raw keywords, each with weight 1.
// Keywords are lowercased; duplicates are merged (their weights add).
func NewQuery(keywords ...string) *Query {
	q := &Query{index: make(map[string]int, len(keywords))}
	for _, k := range keywords {
		for _, tok := range Tokenize(k) {
			q.Add(tok, 1)
		}
	}
	return q
}

// ParseQuery splits a free-text query string into keywords with weight
// 1 each, e.g. "query optimization" -> [query, optimization].
func ParseQuery(text string) *Query { return NewQuery(text) }

// Add adds weight w to term t (inserting it with weight w if absent).
func (q *Query) Add(t string, w float64) {
	t = strings.ToLower(t)
	if i, ok := q.index[t]; ok {
		q.weights[i] += w
		return
	}
	q.index[t] = len(q.terms)
	q.terms = append(q.terms, t)
	q.weights = append(q.weights, w)
}

// SetWeight sets the weight of term t, inserting it if absent.
func (q *Query) SetWeight(t string, w float64) {
	t = strings.ToLower(t)
	if i, ok := q.index[t]; ok {
		q.weights[i] = w
		return
	}
	q.index[t] = len(q.terms)
	q.terms = append(q.terms, t)
	q.weights = append(q.weights, w)
}

// Has reports whether t is a query term.
func (q *Query) Has(t string) bool {
	_, ok := q.index[strings.ToLower(t)]
	return ok
}

// Terms returns the query terms in insertion order. The slice is a copy.
func (q *Query) Terms() []string {
	out := make([]string, len(q.terms))
	copy(out, q.terms)
	return out
}

// Weights returns the term weights aligned with Terms. The slice is a
// copy.
func (q *Query) Weights() []float64 {
	out := make([]float64, len(q.weights))
	copy(out, q.weights)
	return out
}

// Len returns the number of distinct query terms.
func (q *Query) Len() int { return len(q.terms) }

// AverageWeight returns the mean term weight a_q used by the
// term-weight normalization of Section 5.1 (0 for an empty query).
func (q *Query) AverageWeight() float64 {
	if len(q.weights) == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range q.weights {
		sum += w
	}
	return sum / float64(len(q.weights))
}

// Canonical renders the query as a normalized cache-key fragment: terms
// sorted lexicographically, weights in exact hexadecimal float form,
// zero/negative-weight terms dropped (they contribute nothing to the
// base set). Two queries with equal canonical forms produce the same
// base distribution up to floating-point summation order.
func (q *Query) Canonical() string {
	kept := make([]int, 0, len(q.terms))
	for i, w := range q.weights {
		if w > 0 {
			kept = append(kept, i)
		}
	}
	sort.Slice(kept, func(a, b int) bool { return q.terms[kept[a]] < q.terms[kept[b]] })
	var b strings.Builder
	for _, i := range kept {
		b.WriteString(q.terms[i])
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(q.weights[i], 'x', -1, 64))
		b.WriteByte(';')
	}
	return b.String()
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	cp := &Query{
		terms:   append([]string(nil), q.terms...),
		weights: append([]float64(nil), q.weights...),
		index:   make(map[string]int, len(q.terms)),
	}
	for t, i := range q.index {
		cp.index[t] = i
	}
	return cp
}

// String renders the query vector as "[olap:1.00 cubes:0.99]".
func (q *Query) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, t := range q.terms {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%.2f", t, q.weights[i])
	}
	b.WriteByte(']')
	return b.String()
}

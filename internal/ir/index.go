package ir

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// BM25Params are the Okapi BM25 constants of Equation 3. The paper's
// stated ranges: k1 in 1.0–2.0, b usually 0.75, k3 in 0–1000.
type BM25Params struct {
	K1 float64
	B  float64
	K3 float64
}

// DefaultBM25 returns the standard parameter choice (k1=1.2, b=0.75,
// k3=1000).
func DefaultBM25() BM25Params { return BM25Params{K1: 1.2, B: 0.75, K3: 1000} }

// Posting records the term frequency of one term in one document.
type Posting struct {
	Doc int32
	TF  int32
}

// Index is an in-memory inverted index over the documents of a data
// graph (each node is a document: its concatenated attribute values,
// per Section 2). It provides the Okapi BM25 weights W(v, t) of
// Equation 3 and the base-set scores IRScore(v, Q) of Equation 2.
//
// An index is one term representation: a dictionary sorted
// lexicographically, so a term's id is its rank in it; the postings in
// one CSR, term id by term id, each row by ascending document; and the
// forward table, each document's distinct content terms (those
// TokenizeFiltered keeps) by ascending id, derived from the postings.
//
// FromParts is the only way an Index is made; BuildIndex tokenizes
// text into its parts. An Index is immutable and safe for concurrent
// reads.
type Index struct {
	params BM25Params
	// terms is the dictionary and ids its inverse, which only turns a
	// query's strings into ids.
	terms []string
	ids   map[string]int32
	// postStart/posts: term id's postings are
	// posts[postStart[id]:postStart[id+1]].
	postStart []int32
	posts     []Posting
	// tfw holds each posting's document-side BM25 factor (weightTF),
	// aligned with posts, so a merge divides nothing.
	tfw []float64
	// docStart/docTerms: document d's content term ids are
	// docTerms[docStart[d]:docStart[d+1]].
	docStart []int32
	docTerms []int32
	// docLen is each document's length in tokens, the sum of its
	// postings' term frequencies, and avdl their mean.
	docLen []int32
	avdl   float64
}

// FromParts makes an Index over numDocs documents from its parts,
// taking ownership of the slices (no copies). terms is the dictionary,
// strictly ascending, and postStart/posts the postings CSR over it (see
// Postings): every row non-empty, by strictly ascending document ID,
// with positive term frequencies. Input that breaks any of these is an
// error, never an index that misbehaves later. Everything else is
// derived here: each document's length as the sum of its postings'
// term frequencies (every token is indexed, so this is its token
// count), avdl, the postings' BM25 factors and the forward table. The
// parameters must keep every factor finite and positive.
func FromParts(params BM25Params, numDocs int, terms []string, postStart []int32, posts []Posting) (*Index, error) {
	if numDocs < 0 || numDocs > math.MaxInt32 {
		return nil, fmt.Errorf("ir: %d documents", numDocs)
	}
	if k1, b, k3 := params.K1, params.B, params.K3; !(k1 >= 0 && b >= 0 && b <= 1 && k3 >= 0) || math.IsInf(k1, 0) || math.IsInf(k3, 0) {
		return nil, fmt.Errorf("ir: BM25 parameters %+v outside finite k1 >= 0, 0 <= b <= 1, finite k3 >= 0", params)
	}
	if len(postStart) != len(terms)+1 {
		return nil, fmt.Errorf("ir: %d posting offsets for %d terms", len(postStart), len(terms))
	}
	if postStart[0] != 0 || int(postStart[len(terms)]) != len(posts) {
		return nil, fmt.Errorf("ir: posting offsets %d..%d do not cover %d postings", postStart[0], postStart[len(terms)], len(posts))
	}
	n := int32(numDocs)
	ids := make(map[string]int32, len(terms))
	docLen := make([]int32, n)
	var totalLen int64
	for i, t := range terms {
		if t == "" {
			return nil, fmt.Errorf("ir: empty term at position %d", i)
		}
		if i > 0 && t <= terms[i-1] {
			return nil, fmt.Errorf("ir: term %q at position %d does not follow %q", t, i, terms[i-1])
		}
		lo, hi := postStart[i], postStart[i+1]
		if hi <= lo || int(hi) > len(posts) {
			return nil, fmt.Errorf("ir: term %q has posting offsets %d:%d for %d postings", t, lo, hi, len(posts))
		}
		prev := int32(-1)
		for _, p := range posts[lo:hi] {
			if p.Doc <= prev || p.Doc >= n {
				return nil, fmt.Errorf("ir: term %q has unsorted or out-of-range posting doc %d", t, p.Doc)
			}
			if p.TF <= 0 {
				return nil, fmt.Errorf("ir: term %q has non-positive term frequency %d in doc %d", t, p.TF, p.Doc)
			}
			if docLen[p.Doc] > math.MaxInt32-p.TF {
				return nil, fmt.Errorf("ir: doc %d has more than %d tokens", p.Doc, math.MaxInt32)
			}
			docLen[p.Doc] += p.TF
			totalLen += int64(p.TF)
			prev = p.Doc
		}
		ids[t] = int32(i)
	}
	ix := &Index{params: params, terms: terms, ids: ids, postStart: postStart, posts: posts, docLen: docLen}
	if n > 0 {
		ix.avdl = float64(totalLen) / float64(n)
	}
	ix.tfw = make([]float64, len(posts))
	for i, p := range posts {
		ix.tfw[i] = ix.weightTF(p.Doc, float64(p.TF))
	}
	ix.transpose()
	return ix, nil
}

// transpose derives the forward table from the postings: one counting
// pass, a prefix sum, and a fill pass in term-id order, so each row
// lists its ids ascending.
func (ix *Index) transpose() {
	n := len(ix.docLen)
	start := make([]int32, n+1)
	for id, t := range ix.terms {
		if contentTerm(t) {
			for _, p := range ix.row(int32(id)) {
				start[p.Doc+1]++
			}
		}
	}
	for d := 0; d < n; d++ {
		start[d+1] += start[d]
	}
	docTerms := make([]int32, start[n])
	next := slices.Clone(start[:n])
	for id, t := range ix.terms {
		if contentTerm(t) {
			for _, p := range ix.row(int32(id)) {
				docTerms[next[p.Doc]] = int32(id)
				next[p.Doc]++
			}
		}
	}
	ix.docStart, ix.docTerms = start, docTerms
}

// BuildIndex indexes n documents provided by text: it tokenizes them
// into postings, sorts the dictionary and hands the parts to FromParts.
func BuildIndex(n int, text func(i int) string, params BM25Params) *Index {
	// Terms are numbered in order of first occurrence until the sort;
	// documents come in ascending order, so a row that has the current
	// document ends with it.
	ids := make(map[string]int32)
	var first []string
	var rows [][]Posting
	for d := int32(0); int(d) < n; d++ {
		for _, t := range Tokenize(text(int(d))) {
			id, ok := ids[t]
			if !ok {
				id = int32(len(first))
				ids[t] = id
				first = append(first, t)
				rows = append(rows, nil)
			}
			row := rows[id]
			if k := len(row); k > 0 && row[k-1].Doc == d {
				row[k-1].TF++
			} else {
				rows[id] = append(row, Posting{Doc: d, TF: 1})
			}
		}
	}
	order := make([]int32, len(first))
	total := 0
	for i := range order {
		order[i] = int32(i)
		total += len(rows[i])
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(first[a], first[b]) })
	terms := make([]string, len(order))
	postStart := make([]int32, len(order)+1)
	posts := make([]Posting, 0, total)
	for id, old := range order {
		terms[id] = first[old]
		posts = append(posts, rows[old]...)
		postStart[id+1] = int32(len(posts))
	}
	ix, err := FromParts(params, n, terms, postStart, posts)
	if err != nil {
		panic("ir: BuildIndex: " + err.Error())
	}
	return ix
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.docLen) }

// NumTerms returns the size of the dictionary: term ids run from 0 to
// NumTerms()-1.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// Term returns the term with id id.
func (ix *Index) Term(id int32) string { return ix.terms[id] }

// DocTerms returns the forward-table row of doc: the ids of its
// distinct content terms (the terms TokenizeFiltered keeps of its
// text), ascending. The slice aliases internal storage and must not be
// modified.
func (ix *Index) DocTerms(doc int32) []int32 {
	return ix.docTerms[ix.docStart[doc]:ix.docStart[doc+1]]
}

// row returns term id's postings.
func (ix *Index) row(id int32) []Posting { return ix.posts[ix.postStart[id]:ix.postStart[id+1]] }

// rowOf returns term's postings, nil when it is not indexed.
func (ix *Index) rowOf(term string) []Posting {
	if id, ok := ix.ids[term]; ok {
		return ix.row(id)
	}
	return nil
}

// DF returns the document frequency of term t.
func (ix *Index) DF(term string) int { return len(ix.rowOf(term)) }

// TF returns the term frequency of term in doc (0 if absent).
func (ix *Index) TF(doc int32, term string) int {
	ps := ix.rowOf(term)
	if i, ok := findDoc(ps, doc); ok {
		return int(ps[i].TF)
	}
	return 0
}

// findDoc returns the position of doc in the posting row ps and whether
// ps has it.
func findDoc(ps []Posting, doc int32) (int, bool) {
	return slices.BinarySearchFunc(ps, doc, func(p Posting, d int32) int { return cmp.Compare(p.Doc, d) })
}

// idfFloor keeps IDF positive: base-set membership requires IRScore > 0
// for every node that contains a query keyword, so terms occurring in
// more than half the collection are clamped to a tiny positive weight
// instead of Equation 3's (negative) log odds.
const idfFloor = 1e-6

// IDF returns the Robertson–Sparck-Jones inverse document frequency
// ln((n - df + 0.5)/(df + 0.5)) of Equation 3, clamped to a small
// positive floor.
func (ix *Index) IDF(term string) float64 { return ix.idf(ix.DF(term)) }

// idf is IDF of a term of document frequency df.
func (ix *Index) idf(df int) float64 {
	if df == 0 {
		return 0
	}
	n, f := float64(len(ix.docLen)), float64(df)
	idf := math.Log((n - f + 0.5) / (f + 0.5))
	if idf < idfFloor {
		return idfFloor
	}
	return idf
}

// weightTF returns the document-side BM25 factor
// (k1+1)·tf / (K + tf) with K = k1·((1-b) + b·dl/avdl).
func (ix *Index) weightTF(doc int32, tf float64) float64 {
	k1, b := ix.params.K1, ix.params.B
	dl := float64(ix.docLen[doc])
	avdl := ix.avdl
	if avdl == 0 {
		avdl = 1
	}
	k := k1 * ((1 - b) + b*dl/avdl)
	return (k1 + 1) * tf / (k + tf)
}

// Weight returns the Okapi document-term weight W(v, t) of Equation 3
// (IDF times the saturated term-frequency factor), 0 if t does not
// occur in doc.
func (ix *Index) Weight(doc int32, term string) float64 {
	tf := ix.TF(doc, term)
	if tf == 0 {
		return 0
	}
	return ix.IDF(term) * ix.weightTF(doc, float64(tf))
}

// QTFSat returns the query-side BM25 factor (k3+1)·qtf / (k3 + qtf).
// With the default large k3 this is nearly linear in the query-term
// weight, so reformulated weights keep their intended proportions. It is
// the only place a term's weight enters its base-set scores, so a term's
// base mass at weight w is QTFSat(w)/QTFSat(1) times its mass at 1.
func (ix *Index) QTFSat(qtf float64) float64 {
	k3 := ix.params.K3
	return (k3 + 1) * qtf / (k3 + qtf)
}

// Score returns IRScore(v, Q) = v · Q (Equation 2): the dot product of
// the document's Okapi weight vector with the query vector, with each
// query weight passed through BM25's query-side saturation.
func (ix *Index) Score(doc int32, q *Query) float64 {
	s := 0.0
	terms := q.terms
	for i, t := range terms {
		w := q.weights[i]
		if w <= 0 {
			continue
		}
		dw := ix.Weight(doc, t)
		if dw == 0 {
			continue
		}
		s += ix.QTFSat(w) * dw
	}
	return s
}

// ScoredDoc is one base-set member with its (unnormalized) IR score.
type ScoredDoc struct {
	Doc   int32
	Score float64
}

// cursor is one query term's place in its posting row during a merge
// of rows, with the term's query-side factor and IDF: doc is the
// document of posts[at], noDoc once at reaches end.
type cursor struct {
	doc, at, end int32
	qs, idf      float64
}

// maxStackTerms is how many query terms a merge holds without
// allocating.
const maxStackTerms = 16

// noDoc is past every document: the head of a merge that is done.
const noDoc = math.MaxInt32

// cursors appends to buf a cursor on the posting row of each indexed
// term of terms (of each with a positive weight, when weights is not
// nil), in the order of terms, so a sum over the cursors at a document
// runs in query-term order. It also returns the smallest document at
// their heads and the sum of their rows' lengths.
func (ix *Index) cursors(buf []cursor, terms []string, weights []float64) (m []cursor, head int32, n int) {
	m, head = buf, noDoc
	for i, t := range terms {
		id, ok := ix.ids[t]
		if !ok || weights != nil && weights[i] <= 0 {
			continue
		}
		c := cursor{at: ix.postStart[id], end: ix.postStart[id+1]}
		c.doc = ix.posts[c.at].Doc
		if weights != nil {
			c.qs, c.idf = ix.QTFSat(weights[i]), ix.idf(int(c.end-c.at))
		}
		m = append(m, c)
		head = min(head, c.doc)
		n += int(c.end - c.at)
	}
	return m, head, n
}

// advance moves c past its current posting.
func (c *cursor) advance(posts []Posting) {
	c.at++
	c.doc = noDoc
	if c.at < c.end {
		c.doc = posts[c.at].Doc
	}
}

// BaseSet returns every document containing at least one
// positive-weight query term, with IRScore(v, Q) attached, sorted by
// ascending document ID. This is the query base set S(Q) of Section 3;
// the caller normalizes scores to sum to one before using them as
// random-jump probabilities.
//
// It merges the terms' sorted posting rows into a result sized by the
// sum of their lengths, its only allocation for a query of up to
// maxStackTerms indexed terms. Each document's score is summed in
// query-term order, and one pass over the cursors per document both
// scores it and finds the next.
func (ix *Index) BaseSet(q *Query) []ScoredDoc {
	var buf [maxStackTerms]cursor
	m, doc, bound := ix.cursors(buf[:0], q.terms, q.weights)
	posts, tfw := ix.posts, ix.tfw
	out := make([]ScoredDoc, 0, bound)
	for doc != noDoc {
		s := 0.0
		next := int32(noDoc)
		for i := range m {
			c := &m[i]
			if c.doc == doc {
				s += c.qs * c.idf * tfw[c.at]
				c.advance(posts)
			}
			next = min(next, c.doc)
		}
		out = append(out, ScoredDoc{Doc: doc, Score: s})
		doc = next
	}
	return out
}

// DocsWithAny returns the number of documents containing at least one
// of terms — the size of the base set of a query over exactly those
// (positive-weight) terms, counted by merging their sorted posting rows
// instead of scoring them.
func (ix *Index) DocsWithAny(terms []string) int {
	var buf [maxStackTerms]cursor
	m, doc, _ := ix.cursors(buf[:0], terms, nil)
	n := 0
	for ; doc != noDoc; n++ {
		next := int32(noDoc)
		for i := range m {
			c := &m[i]
			if c.doc == doc {
				c.advance(ix.posts)
			}
			next = min(next, c.doc)
		}
		doc = next
	}
	return n
}

// TermsWithDF returns every indexed content term (see TokenizeFiltered)
// whose document frequency is at least minDF, sorted lexicographically:
// the vocabulary enumeration the profile term panel and the knn cluster
// graph pick their terms from, where stopwords and single-character
// tokens never make useful query keywords.
func (ix *Index) TermsWithDF(minDF int) []string {
	var out []string
	for id, t := range ix.terms {
		if len(ix.row(int32(id))) >= minDF && contentTerm(t) {
			out = append(out, t)
		}
	}
	return out
}

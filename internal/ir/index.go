package ir

import (
	"cmp"
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
// A finalized index is one term representation: a dictionary sorted
// lexicographically, so a term's id is its rank in it; the postings in
// one CSR, term id by term id, each row by ascending document; and the
// forward table, each document's distinct content terms (those
// TokenizeFiltered keeps) by ascending id, derived from the postings.
//
// Build an index with NewIndex + Add + Finalize, or BuildIndex. A
// finalized Index is immutable and safe for concurrent reads.
type Index struct {
	params BM25Params
	// terms is the dictionary and ids its inverse, which only turns a
	// query's strings into ids. Before Finalize, ids number the terms
	// in order of first occurrence and rows holds their postings.
	terms []string
	ids   map[string]int32
	rows  [][]Posting
	// postStart/posts: term id's postings are
	// posts[postStart[id]:postStart[id+1]].
	postStart []int32
	posts     []Posting
	// tfw holds each posting's document-side BM25 factor (weightTF),
	// aligned with posts, so a merge divides nothing.
	tfw []float64
	// docStart/docTerms: document d's content term ids are
	// docTerms[docStart[d]:docStart[d+1]].
	docStart  []int32
	docTerms  []int32
	docLen    []int32
	totalLen  int64
	avdl      float64
	finalized bool
}

// NewIndex returns an empty index with the given BM25 parameters.
func NewIndex(params BM25Params) *Index {
	return &Index{params: params, ids: make(map[string]int32)}
}

// Add indexes the text of document doc. Documents must be added in
// ascending doc order (the data-graph node order); Add panics
// otherwise, and after Finalize.
func (ix *Index) Add(doc int32, text string) {
	if ix.finalized {
		panic("ir: Add after Finalize")
	}
	if int(doc) < len(ix.docLen) {
		panic("ir: documents must be added in ascending order")
	}
	for int(doc) > len(ix.docLen) { // fill holes with empty docs
		ix.docLen = append(ix.docLen, 0)
	}
	ix.docLen = append(ix.docLen, int32(len(text)))
	ix.totalLen += int64(len(text))
	// doc is the newest document, so a row that has it ends with it.
	for _, t := range Tokenize(text) {
		id, ok := ix.ids[t]
		if !ok {
			id = int32(len(ix.terms))
			ix.ids[t] = id
			ix.terms = append(ix.terms, t)
			ix.rows = append(ix.rows, nil)
		}
		row := ix.rows[id]
		if n := len(row); n > 0 && row[n-1].Doc == doc {
			row[n-1].TF++
		} else {
			ix.rows[id] = append(row, Posting{Doc: doc, TF: 1})
		}
	}
}

// Finalize freezes the index: it sorts the dictionary, packs the
// postings into the CSR, derives the forward table and computes avdl.
func (ix *Index) Finalize() {
	if ix.finalized {
		return
	}
	order := make([]int32, len(ix.terms))
	total := 0
	for i := range order {
		order[i] = int32(i)
		total += len(ix.rows[i])
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ix.terms[a], ix.terms[b]) })
	terms := make([]string, len(order))
	postStart := make([]int32, len(order)+1)
	posts := make([]Posting, 0, total)
	for id, old := range order {
		terms[id] = ix.terms[old]
		ix.ids[terms[id]] = int32(id)
		posts = append(posts, ix.rows[old]...)
		postStart[id+1] = int32(len(posts))
	}
	ix.rows = nil
	ix.freeze(terms, postStart, posts)
}

// freeze installs the dictionary and the postings CSR (ix.ids already
// maps terms to their ids), derives avdl, the postings' BM25 factors
// and the forward table, and marks the index finalized.
func (ix *Index) freeze(terms []string, postStart []int32, posts []Posting) {
	ix.terms, ix.postStart, ix.posts = terms, postStart, posts
	if n := len(ix.docLen); n > 0 {
		ix.avdl = float64(ix.totalLen) / float64(n)
	}
	ix.tfw = make([]float64, len(posts))
	for i, p := range posts {
		ix.tfw[i] = ix.weightTF(p.Doc, float64(p.TF))
	}
	ix.transpose()
	ix.finalized = true
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

// BuildIndex indexes n documents provided by text and finalizes the
// result.
func BuildIndex(n int, text func(i int) string, params BM25Params) *Index {
	ix := NewIndex(params)
	for i := 0; i < n; i++ {
		ix.Add(int32(i), text(i))
	}
	ix.Finalize()
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

package ir

import (
	"math"
	"sort"
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
// Build an index with NewIndex + Add + Finalize, or BuildIndex. A
// finalized Index is immutable and safe for concurrent reads.
type Index struct {
	params    BM25Params
	postings  map[string][]Posting
	docLen    []int32
	totalLen  int64
	avdl      float64
	finalized bool
}

// NewIndex returns an empty index with the given BM25 parameters.
func NewIndex(params BM25Params) *Index {
	return &Index{params: params, postings: make(map[string][]Posting)}
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
	toks := Tokenize(text)
	ix.docLen = append(ix.docLen, int32(len(text)))
	ix.totalLen += int64(len(text))
	// Count term frequencies locally, then append one posting per term.
	tf := make(map[string]int32, len(toks))
	for _, t := range toks {
		tf[t]++
	}
	for t, f := range tf {
		ix.postings[t] = append(ix.postings[t], Posting{Doc: doc, TF: f})
	}
}

// Finalize freezes the index: computes avdl and sorts posting lists by
// document ID.
func (ix *Index) Finalize() {
	if ix.finalized {
		return
	}
	if n := len(ix.docLen); n > 0 {
		ix.avdl = float64(ix.totalLen) / float64(n)
	}
	for _, ps := range ix.postings {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Doc < ps[j].Doc })
	}
	ix.finalized = true
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

// DF returns the document frequency of term t.
func (ix *Index) DF(term string) int { return len(ix.postings[term]) }

// TF returns the term frequency of term in doc (0 if absent).
func (ix *Index) TF(doc int32, term string) int {
	ps := ix.postings[term]
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= doc })
	if i < len(ps) && ps[i].Doc == doc {
		return int(ps[i].TF)
	}
	return 0
}

// Postings returns the posting list of term. The slice aliases internal
// storage and must not be modified.
func (ix *Index) Postings(term string) []Posting { return ix.postings[term] }

// idfFloor keeps IDF positive: base-set membership requires IRScore > 0
// for every node that contains a query keyword, so terms occurring in
// more than half the collection are clamped to a tiny positive weight
// instead of Equation 3's (negative) log odds.
const idfFloor = 1e-6

// IDF returns the Robertson–Sparck-Jones inverse document frequency
// ln((n - df + 0.5)/(df + 0.5)) of Equation 3, clamped to a small
// positive floor.
func (ix *Index) IDF(term string) float64 {
	n := float64(len(ix.docLen))
	df := float64(ix.DF(term))
	if df == 0 {
		return 0
	}
	idf := math.Log((n - df + 0.5) / (df + 0.5))
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

// BaseSet returns every document containing at least one query term,
// with IRScore(v, Q) attached, sorted by ascending document ID. This is
// the query base set S(Q) of Section 3; the caller normalizes scores to
// sum to one before using them as random-jump probabilities.
func (ix *Index) BaseSet(q *Query) []ScoredDoc {
	seen := make(map[int32]float64)
	for i, t := range q.terms {
		w := q.weights[i]
		if w <= 0 {
			continue
		}
		ps := ix.postings[t]
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

// DocsWithAny returns the number of documents containing at least one
// of terms — the size of the base set of a query over exactly those
// (positive-weight) terms, counted by merging their sorted posting lists
// instead of scoring them.
func (ix *Index) DocsWithAny(terms []string) int {
	heads := make([][]Posting, 0, len(terms))
	for _, t := range terms {
		if ps := ix.postings[t]; len(ps) > 0 {
			heads = append(heads, ps)
		}
	}
	n := 0
	for len(heads) > 1 {
		lo := heads[0][0].Doc
		for _, ps := range heads[1:] {
			if ps[0].Doc < lo {
				lo = ps[0].Doc
			}
		}
		n++
		live := heads[:0]
		for _, ps := range heads {
			if ps[0].Doc == lo {
				ps = ps[1:]
			}
			if len(ps) > 0 {
				live = append(live, ps)
			}
		}
		heads = live
	}
	if len(heads) == 1 {
		n += len(heads[0])
	}
	return n
}

// TermsWithDF returns every indexed term whose document frequency is at
// least minDF, sorted lexicographically. Stopwords and single-character
// tokens are excluded: this is the vocabulary enumeration the profile
// term panel and the knn cluster graph pick their terms from, where such
// terms never make useful query keywords.
func (ix *Index) TermsWithDF(minDF int) []string {
	var out []string
	for t, ps := range ix.postings {
		if len(ps) >= minDF && len(t) > 1 && !stopwords[t] {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

package ir

import (
	"fmt"
	"sort"
)

// Params returns the index's BM25 parameters.
func (ix *Index) Params() BM25Params { return ix.params }

// DocLens returns the per-document lengths in bytes (len of the text
// Add was given, which BM25's length normalization reads). The slice
// aliases internal storage and must not be modified.
func (ix *Index) DocLens() []int32 { return ix.docLen }

// TotalLen returns the summed document length in bytes (avdl's
// numerator, persisted so a reloaded index recomputes avdl with the
// exact same division).
func (ix *Index) TotalLen() int64 { return ix.totalLen }

// Terms returns every indexed term, sorted lexicographically. Unlike
// TermsWithDF this is the complete vocabulary — the enumeration a
// snapshot writer needs for a lossless dump.
func (ix *Index) Terms() []string {
	out := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// FromParts reassembles a finalized Index from its frozen parts,
// taking ownership of the slices (no copies; posting lists may alias
// one backing array). terms and postings are parallel: postings[i] is
// the posting list of terms[i], sorted by strictly ascending document
// ID with positive term frequencies. Every invariant Finalize
// establishes is re-checked so corrupt input yields an error, never an
// index that misbehaves later. avdl is recomputed from totalLen with
// the same division Finalize uses, keeping BM25 weights bit-identical
// to the originally built index.
func FromParts(params BM25Params, docLen []int32, totalLen int64, terms []string, postings [][]Posting) (*Index, error) {
	if len(terms) != len(postings) {
		return nil, fmt.Errorf("ir: %d terms but %d posting lists", len(terms), len(postings))
	}
	n := int32(len(docLen))
	m := make(map[string][]Posting, len(terms))
	for i, t := range terms {
		if t == "" {
			return nil, fmt.Errorf("ir: empty term at position %d", i)
		}
		if _, dup := m[t]; dup {
			return nil, fmt.Errorf("ir: duplicate term %q", t)
		}
		ps := postings[i]
		if len(ps) == 0 {
			return nil, fmt.Errorf("ir: term %q has no postings", t)
		}
		prev := int32(-1)
		for _, p := range ps {
			if p.Doc <= prev || p.Doc < 0 || p.Doc >= n {
				return nil, fmt.Errorf("ir: term %q has unsorted or out-of-range posting doc %d", t, p.Doc)
			}
			if p.TF <= 0 {
				return nil, fmt.Errorf("ir: term %q has non-positive term frequency %d in doc %d", t, p.TF, p.Doc)
			}
			prev = p.Doc
		}
		m[t] = ps
	}
	ix := &Index{
		params:    params,
		postings:  m,
		docLen:    docLen,
		totalLen:  totalLen,
		finalized: true,
	}
	if len(docLen) > 0 {
		ix.avdl = float64(totalLen) / float64(len(docLen))
	}
	return ix, nil
}

package ir

import "fmt"

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

// Terms returns the dictionary: every indexed term, sorted
// lexicographically, at the position of its id. Unlike TermsWithDF this
// is the complete vocabulary — the enumeration a snapshot writer needs
// for a lossless dump. The slice aliases internal storage and must not
// be modified.
func (ix *Index) Terms() []string { return ix.terms }

// Postings returns the postings CSR: term id's posting row is
// posts[start[id]:start[id+1]], by ascending document. The slices alias
// internal storage and must not be modified.
func (ix *Index) Postings() (start []int32, posts []Posting) { return ix.postStart, ix.posts }

// FromParts reassembles a finalized Index from its frozen parts,
// taking ownership of the slices (no copies). terms is the dictionary,
// strictly ascending, and postStart/posts the postings CSR over it (see
// Postings): every row non-empty, by strictly ascending document ID,
// with positive term frequencies. Every invariant Finalize establishes
// is re-checked so corrupt input yields an error, never an index that
// misbehaves later. avdl is recomputed from totalLen with the same
// division Finalize uses, keeping BM25 weights bit-identical to the
// originally built index, and the forward table is derived from the
// postings as Finalize derives it.
func FromParts(params BM25Params, docLen []int32, totalLen int64, terms []string, postStart []int32, posts []Posting) (*Index, error) {
	if len(postStart) != len(terms)+1 {
		return nil, fmt.Errorf("ir: %d posting offsets for %d terms", len(postStart), len(terms))
	}
	if postStart[0] != 0 || int(postStart[len(terms)]) != len(posts) {
		return nil, fmt.Errorf("ir: posting offsets %d..%d do not cover %d postings", postStart[0], postStart[len(terms)], len(posts))
	}
	n := int32(len(docLen))
	ids := make(map[string]int32, len(terms))
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
			prev = p.Doc
		}
		ids[t] = int32(i)
	}
	ix := &Index{params: params, ids: ids, docLen: docLen, totalLen: totalLen}
	ix.freeze(terms, postStart, posts)
	return ix, nil
}

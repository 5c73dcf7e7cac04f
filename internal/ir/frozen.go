package ir

// Params returns the index's BM25 parameters.
func (ix *Index) Params() BM25Params { return ix.params }

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

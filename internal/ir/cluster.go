package ir

import (
	"cmp"
	"math"

	"authorityflow/internal/rank"
)

// This file implements the link-free authority construction: when a
// corpus has no citation/containment structure at all, authority flow
// still works if the arcs are *derived* from content. Following the
// paper's observation that ObjectRank-style flow only needs a graph —
// not hyperlinks — we build a cluster graph whose arcs connect each
// document to its K nearest neighbors under the cosine similarity of
// tf-idf document language models. The resulting graph is handed to the
// ordinary datagen/graph pipeline, so snapshots, rate training, hub
// scores and audits all run unchanged on linkless corpora.

// DefaultClusterK is the number of nearest neighbors kept per document
// when ClusterOptions.K is unset.
const DefaultClusterK = 8

// DefaultClusterMaxDFRatio is the document-frequency cutoff: terms
// occurring in more than this fraction of the collection carry
// almost no discriminative weight (their IDF is clamped near zero) but
// dominate the pairwise accumulation cost, so they are excluded from
// the similarity space entirely.
const DefaultClusterMaxDFRatio = 0.5

// ClusterOptions parameterizes ClusterGraph.
type ClusterOptions struct {
	// K is the number of nearest neighbors kept per document
	// (DefaultClusterK when <= 0).
	K int
}

// ClusterEdge is one directed knn arc of the cluster graph: From's
// language model has To among its K most similar peers, with the
// cosine similarity attached. Edges are emitted in ascending From
// order; within one source document, neighbors are ordered by
// descending similarity with ties broken on ascending To.
type ClusterEdge struct {
	From int32
	To   int32
	Sim  float64
}

// clusterTerm is one eligible term's posting list with the tf-idf
// weight of every posting precomputed (aligned by index).
type clusterTerm struct {
	ps []Posting
	w  []float64
}

// ClusterGraph builds the knn cluster graph over the indexed documents:
// each document is a tf-idf vector over the eligible vocabulary (terms
// with 2 <= DF <= DefaultClusterMaxDFRatio*N, excluding stopwords and
// single-character tokens), similarity is the
// cosine of those vectors, and each document keeps its top-K neighbors.
//
// The accumulation is term-at-a-time over sorted posting lists, so the
// result is fully deterministic — same index, same options, same edges,
// bit-identical similarities. Cost is sum over eligible terms of DF^2,
// which the DefaultClusterMaxDFRatio cap keeps bounded.
func (ix *Index) ClusterGraph(o ClusterOptions) []ClusterEdge {
	if !ix.finalized {
		panic("ir: ClusterGraph before Finalize")
	}
	n := ix.NumDocs()
	if n == 0 {
		return nil
	}
	k := o.K
	if k <= 0 {
		k = DefaultClusterK
	}
	maxDF := int(DefaultClusterMaxDFRatio * float64(n))
	if maxDF < 2 {
		maxDF = 2
	}

	// Eligible vocabulary in sorted order: iteration order fixes the
	// floating-point accumulation order, which fixes the output bits.
	var vocab []string
	for _, t := range ix.TermsWithDF(2) {
		if ix.DF(t) <= maxDF {
			vocab = append(vocab, t)
		}
	}

	// Precompute per-posting tf-idf weights, per-document norms over
	// the eligible space, and the doc-major forward index (term
	// ordinal + own weight per document).
	terms := make([]clusterTerm, len(vocab))
	norm2 := make([]float64, n)
	type docTerm struct {
		term int32
		w    float64
	}
	forward := make([][]docTerm, n)
	for ti, t := range vocab {
		ps := ix.postings[t]
		idf := ix.IDF(t)
		ws := make([]float64, len(ps))
		for i, p := range ps {
			w := idf * ix.weightTF(p.Doc, float64(p.TF))
			ws[i] = w
			norm2[p.Doc] += w * w
			forward[p.Doc] = append(forward[p.Doc], docTerm{term: int32(ti), w: w})
		}
		terms[ti] = clusterTerm{ps: ps, w: ws}
	}

	// Term-at-a-time knn: for each document, accumulate dot products
	// against every co-occurring document, normalize to cosine, keep
	// the deterministic top-K.
	acc := make([]float64, n)
	var touched []int32
	var edges []ClusterEdge
	top := rank.NewTop(k, func(e ClusterEdge) float64 { return e.Sim }, compareNeighbours)
	for d := 0; d < n; d++ {
		if norm2[d] == 0 {
			continue
		}
		touched = touched[:0]
		for _, dt := range forward[d] {
			term := terms[dt.term]
			for i, p := range term.ps {
				if int(p.Doc) == d {
					continue
				}
				if acc[p.Doc] == 0 {
					touched = append(touched, p.Doc)
				}
				acc[p.Doc] += dt.w * term.w[i]
			}
		}
		top.Reset()
		nd := math.Sqrt(norm2[d])
		for _, j := range touched {
			if norm2[j] == 0 || acc[j] == 0 {
				continue
			}
			sim := acc[j] / (nd * math.Sqrt(norm2[j]))
			if sim > 0 && top.Admits(sim) {
				top.Offer(ClusterEdge{From: int32(d), To: j, Sim: sim})
			}
		}
		for _, j := range touched {
			acc[j] = 0
		}
		edges = append(edges, top.Sorted()...)
	}
	return edges
}

// compareNeighbours is one document's neighbour order: similarity
// descending, then ascending To.
func compareNeighbours(a, b ClusterEdge) int {
	return cmp.Or(cmp.Compare(b.Sim, a.Sim), cmp.Compare(a.To, b.To))
}

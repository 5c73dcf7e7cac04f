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

// ClusterGraph builds the knn cluster graph over the indexed documents:
// each document is a tf-idf vector over the eligible vocabulary (content
// terms, see TokenizeFiltered, with 2 <= DF <=
// DefaultClusterMaxDFRatio*N), similarity is the cosine of those
// vectors, and each document keeps its top-K neighbors.
//
// The accumulation is term-at-a-time over sorted posting rows, each
// document's terms read from the forward table in id order, so the
// result is fully deterministic — same index, same options, same edges,
// bit-identical similarities. Cost is sum over eligible terms of DF^2,
// which the DefaultClusterMaxDFRatio cap keeps bounded.
func (ix *Index) ClusterGraph(o ClusterOptions) []ClusterEdge {
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
	eligible := func(id int32) bool {
		df := int(ix.postStart[id+1] - ix.postStart[id])
		return df >= 2 && df <= maxDF
	}

	// The tf-idf weight of every posting of an eligible term (aligned
	// with ix.posts) and the per-document norms over the eligible
	// space, both summed in term-id order.
	w := make([]float64, len(ix.posts))
	norm2 := make([]float64, n)
	for id, t := range ix.terms {
		if !contentTerm(t) || !eligible(int32(id)) {
			continue
		}
		lo, hi := ix.postStart[id], ix.postStart[id+1]
		idf := ix.idf(int(hi - lo))
		for k := lo; k < hi; k++ {
			pw := idf * ix.tfw[k]
			w[k] = pw
			norm2[ix.posts[k].Doc] += pw * pw
		}
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
		for _, id := range ix.DocTerms(int32(d)) {
			if !eligible(id) {
				continue
			}
			lo := int(ix.postStart[id])
			ps := ix.row(id)
			self, _ := findDoc(ps, int32(d))
			dw := w[lo+self]
			for i, p := range ps {
				if int(p.Doc) == d {
					continue
				}
				if acc[p.Doc] == 0 {
					touched = append(touched, p.Doc)
				}
				acc[p.Doc] += dw * w[lo+i]
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

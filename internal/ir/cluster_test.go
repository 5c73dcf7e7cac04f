package ir

import (
	"reflect"
	"testing"
)

// clusterCorpus is a tiny corpus with two clear content clusters (olap
// vs xml) plus a ubiquitous term shared by everything.
func clusterCorpus() []string {
	return []string{
		"olap cube aggregation shared",
		"olap cube warehouse shared",
		"olap aggregation warehouse shared",
		"xml xpath twig shared",
		"xml xpath schemas shared",
		"xml twig schemas shared",
	}
}

func buildClusterIndex(t *testing.T, docs []string) *Index {
	t.Helper()
	return BuildIndex(len(docs), func(i int) string { return docs[i] }, DefaultBM25())
}

func TestClusterGraphGroupsByContent(t *testing.T) {
	ix := buildClusterIndex(t, clusterCorpus())
	edges := ix.ClusterGraph(ClusterOptions{K: 2})
	if len(edges) == 0 {
		t.Fatal("no cluster edges")
	}
	cluster := func(d int32) int { return int(d) / 3 } // docs 0-2 olap, 3-5 xml
	for _, e := range edges {
		if e.From == e.To {
			t.Fatalf("self edge %+v", e)
		}
		if e.Sim <= 0 || e.Sim > 1+1e-12 {
			t.Fatalf("cosine out of range: %+v", e)
		}
		if cluster(e.From) != cluster(e.To) {
			t.Errorf("cross-cluster edge %+v: knn should stay within the content cluster", e)
		}
	}
	// Every document has same-cluster peers, so every document should
	// keep exactly K neighbors.
	perDoc := map[int32]int{}
	for _, e := range edges {
		perDoc[e.From]++
	}
	for d := int32(0); d < 6; d++ {
		if perDoc[d] != 2 {
			t.Errorf("doc %d has %d neighbors, want 2", d, perDoc[d])
		}
	}
}

func TestClusterGraphDeterministic(t *testing.T) {
	a := buildClusterIndex(t, clusterCorpus()).ClusterGraph(ClusterOptions{K: 3})
	b := buildClusterIndex(t, clusterCorpus()).ClusterGraph(ClusterOptions{K: 3})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ClusterGraph is not deterministic across identical builds")
	}
	// Ordering contract: ascending From; per source descending Sim with
	// ascending To on ties.
	for i := 1; i < len(a); i++ {
		p, q := a[i-1], a[i]
		if q.From < p.From {
			t.Fatalf("edges not in ascending From order: %+v before %+v", p, q)
		}
		if q.From == p.From {
			if q.Sim > p.Sim || (q.Sim == p.Sim && q.To <= p.To) {
				t.Fatalf("neighbor order violated: %+v before %+v", p, q)
			}
		}
	}
}

func TestClusterGraphMaxDFExcludesUbiquitousTerms(t *testing.T) {
	// Documents 0/1 share only the ubiquitous term "shared" (DF = 4 of
	// 4 docs); documents 2/3 genuinely overlap. With the DF cap active,
	// "shared" is outside the similarity space, so no 0-1 edge exists.
	docs := []string{
		"olap cube shared",
		"xml twig shared",
		"mining patterns shared",
		"mining patterns shared frequent",
	}
	ix := buildClusterIndex(t, docs)
	edges := ix.ClusterGraph(ClusterOptions{K: 3})
	for _, e := range edges {
		lo, hi := e.From, e.To
		if lo > hi {
			lo, hi = hi, lo
		}
		if !(lo == 2 && hi == 3) {
			t.Fatalf("unexpected edge %+v: only docs 2 and 3 share discriminative terms", e)
		}
	}
	if len(edges) != 2 {
		t.Fatalf("want the symmetric 2<->3 pair, got %d edges: %+v", len(edges), edges)
	}
}

func TestClusterGraphEmptyAndSingleton(t *testing.T) {
	if got := buildClusterIndex(t, nil).ClusterGraph(ClusterOptions{}); len(got) != 0 {
		t.Fatalf("empty corpus produced edges: %+v", got)
	}
	if got := buildClusterIndex(t, []string{"olap cube"}).ClusterGraph(ClusterOptions{}); len(got) != 0 {
		t.Fatalf("singleton corpus produced edges: %+v", got)
	}
}

package eval_test

import (
	"context"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// The evidence tests put a number under surfaces that rest on a cited
// paper (the table is EXPERIMENTS.md "Evidence"). Ground truth is the generators' planted topic: a
// document is relevant to topic t's query when t is its PRIMARY topic —
// the topic whose keyword pool (datagen.TopicWords, the proxy vocab.go
// documents) its title overlaps most. Queries are the first one and
// first two pool words of each of the 16 topics, over 5 seeds.

const evidenceSeeds = 5

// primaryTopic returns the topic whose keyword pool the text overlaps
// most (lowest index on a tie), or -1 with no overlap at all.
func primaryTopic(pools []map[string]bool, text string) int {
	best, bestN := -1, 0
	for t, pool := range pools {
		n := 0
		for _, w := range ir.Tokenize(text) {
			if pool[w] {
				n++
			}
		}
		if n > bestN {
			best, bestN = t, n
		}
	}
	return best
}

// plantedTopics labels every node of type typ with its primary topic.
func plantedTopics(g *graph.Graph, typ graph.TypeID) map[graph.NodeID]int {
	pools := make([]map[string]bool, datagen.NumTopics())
	for t := range pools {
		pools[t] = make(map[string]bool)
		for _, w := range datagen.TopicWords(t) {
			pools[t][w] = true
		}
	}
	out := make(map[graph.NodeID]int)
	for _, v := range g.NodesOfType(typ) {
		out[v] = primaryTopic(pools, g.Text(v))
	}
	return out
}

func relevantTo(topics map[graph.NodeID]int, t int) map[graph.NodeID]bool {
	rel := make(map[graph.NodeID]bool)
	for v, vt := range topics {
		if vt == t {
			rel[v] = true
		}
	}
	return rel
}

func evidenceEngine(t *testing.T, preset string, scale float64, seed int64) *core.Engine {
	t.Helper()
	ds, err := datagen.Preset(preset, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(ds.Graph, ds.Rates, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func solveMode(t *testing.T, e *core.Engine, q *ir.Query, m core.Mode) *core.RankResult {
	t.Helper()
	rs, err := e.Pin().Solve(context.Background(), core.SolveSpec{Queries: []*ir.Query{q}, Mode: m})
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// TestEvidenceLinkFreeAuthority is Kurland & Lee's claim:
// on a corpus with no links at all, authority flowing over the tf-idf
// knn cluster graph ranks at least as precisely as the initial
// retrieval it re-ranks (the BM25 order of the base set).
func TestEvidenceLinkFreeAuthority(t *testing.T) {
	type cell struct{ auth, bm25 []float64 }
	var p5, p10 [2]cell // by query length − 1
	for seed := int64(1); seed <= evidenceSeeds; seed++ {
		e := evidenceEngine(t, "linkless", 0.2, seed)
		g := e.Graph()
		docType, _ := g.Schema().TypeByName("Document")
		topics := plantedTopics(g, docType)
		for topic := 0; topic < datagen.NumTopics(); topic++ {
			rel := relevantTo(topics, topic)
			for terms := 1; terms <= 2; terms++ {
				res := solveMode(t, e, ir.NewQuery(datagen.TopicQuery(topic, terms)...), core.ModeAuthority)
				auth := res.TopK(10)
				irScore := make([]float64, g.NumNodes())
				for _, sd := range res.Base {
					irScore[sd.Doc] = sd.Score
				}
				bm25 := rank.TopK(irScore, 10)
				e.Release(res)
				c5, c10 := &p5[terms-1], &p10[terms-1]
				c5.auth = append(c5.auth, eval.PrecisionAtK(auth, rel, 5))
				c5.bm25 = append(c5.bm25, eval.PrecisionAtK(bm25, rel, 5))
				c10.auth = append(c10.auth, eval.PrecisionAtK(auth, rel, 10))
				c10.bm25 = append(c10.bm25, eval.PrecisionAtK(bm25, rel, 10))
			}
		}
	}
	for terms := 1; terms <= 2; terms++ {
		for _, row := range []struct {
			k int
			c cell
		}{{5, p5[terms-1]}, {10, p10[terms-1]}} {
			auth, bm25 := eval.Mean(row.c.auth), eval.Mean(row.c.bm25)
			t.Logf("linkless, %d-term queries: P@%d authority %.3f, BM25 %.3f (n=%d)", terms, row.k, auth, bm25, len(row.c.auth))
			if auth < bm25 {
				t.Errorf("%d-term P@%d: authority over the knn graph %.3f < BM25 base-set order %.3f — link-free authority no longer earns its keep",
					terms, row.k, auth, bm25)
			}
		}
	}
}

// agreement accumulates how alike two rankings of the same queries are:
// the share of one top-10 found in the other, Kendall τ between the two
// top-50 lists (over the nodes both hold), and how often they agree on
// the first result.
type agreement struct{ overlap, tau, top1 []float64 }

func (a *agreement) add(x, y []rank.Ranked) {
	ids := func(rs []rank.Ranked, k int) []graph.NodeID {
		if len(rs) > k {
			rs = rs[:k]
		}
		out := make([]graph.NodeID, len(rs))
		for i, r := range rs {
			out[i] = r.Node
		}
		return out
	}
	x10, y10 := ids(x, 10), ids(y, 10)
	if len(x10) == 0 || len(y10) == 0 {
		return
	}
	in := make(map[graph.NodeID]bool, len(y10))
	for _, v := range y10 {
		in[v] = true
	}
	shared := 0
	for _, v := range x10 {
		if in[v] {
			shared++
		}
	}
	a.overlap = append(a.overlap, float64(shared)/float64(len(x10)))
	a.tau = append(a.tau, eval.KendallTau(ids(x, 50), ids(y, 50)))
	same := 0.0
	if x10[0] == y10[0] {
		same = 1
	}
	a.top1 = append(a.top1, same)
}

// bioEvidenceQueries are the ds7cancer queries of the hub↔combined
// column: the corpus holds only the cancer topic, so its first one and
// two pool words, plus four words other topics' pools lend to abstracts.
func bioEvidenceQueries() []*ir.Query {
	qs := []*ir.Query{ir.NewQuery(datagen.BioTopicQuery(0, 1)...), ir.NewQuery(datagen.BioTopicQuery(0, 2)...)}
	for _, w := range []string{"kinase", "receptor", "immune", "mutation"} {
		qs = append(qs, ir.NewQuery(w))
	}
	return qs
}

// TestEvidenceCombinedMode records the claim that kept mode=combined
// in the tree: among the Paper nodes of the bibliographic corpus,
// √(authority·hub) ranks at least as precisely as authority alone. Hub
// is reported beside them, and so is how far hub and combined are the
// same ranking — on the bibliographic and the biological corpus — since
// equal precision alone does not say whether they are two answers.
func TestEvidenceCombinedMode(t *testing.T) {
	modes := []core.Mode{core.ModeAuthority, core.ModeHub, core.ModeCombined}
	p10 := make(map[core.Mode][]float64)
	var dblp, bio agreement
	for seed := int64(1); seed <= evidenceSeeds; seed++ {
		e := evidenceEngine(t, "dblptop", 0.05, seed)
		g := e.Graph()
		paper, _ := g.Schema().TypeByName("Paper")
		topics := plantedTopics(g, paper)
		for topic := 0; topic < datagen.NumTopics(); topic++ {
			rel := relevantTo(topics, topic)
			for terms := 1; terms <= 2; terms++ {
				q := ir.NewQuery(datagen.TopicQuery(topic, terms)...)
				top := make(map[core.Mode][]rank.Ranked)
				for _, m := range modes {
					res := solveMode(t, e, q, m)
					top[m] = res.TopKOfType(g, paper, 50)
					p10[m] = append(p10[m], eval.PrecisionAtK(top[m], rel, 10))
					e.Release(res)
				}
				dblp.add(top[core.ModeHub], top[core.ModeCombined])
			}
		}

		e = evidenceEngine(t, "ds7cancer", 0.2, seed)
		g = e.Graph()
		pubmed, _ := g.Schema().TypeByName("PubMed")
		for _, q := range bioEvidenceQueries() {
			hub, comb := solveMode(t, e, q, core.ModeHub), solveMode(t, e, q, core.ModeCombined)
			bio.add(hub.TopKOfType(g, pubmed, 50), comb.TopKOfType(g, pubmed, 50))
			e.Release(hub)
			e.Release(comb)
		}
	}
	auth, hub, comb := eval.Mean(p10[core.ModeAuthority]), eval.Mean(p10[core.ModeHub]), eval.Mean(p10[core.ModeCombined])
	t.Logf("dblptop papers: P@10 authority %.3f, hub %.3f, combined %.3f (n=%d)", auth, hub, comb, len(p10[core.ModeAuthority]))
	for _, row := range []struct {
		name string
		a    agreement
	}{{"dblptop papers", dblp}, {"ds7cancer pubmed", bio}} {
		t.Logf("%s, hub vs combined: top-10 overlap %.3f, Kendall tau@50 %.3f, same top-1 %.0f%% (n=%d)",
			row.name, eval.Mean(row.a.overlap), eval.Mean(row.a.tau), 100*eval.Mean(row.a.top1), len(row.a.overlap))
	}
	if comb < auth {
		t.Errorf("P@10 combined %.3f < authority %.3f — combined mode no longer earns its cache keys, route keys and contract rows", comb, auth)
	}
}

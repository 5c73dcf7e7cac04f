package eval_test

import (
	"context"
	"math/rand"
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

// degrade is a bite twin's lever: it rewrites a score vector before it
// is ranked. shuffled, the one in use, turns a ranking into a random one.
type degrade func(scores []float64, rng *rand.Rand)

func shuffled(scores []float64, rng *rand.Rand) {
	rng.Shuffle(len(scores), func(i, j int) { scores[i], scores[j] = scores[j], scores[i] })
}

// linkFreeCell is one (query length, k) cell of the link-free
// comparison: mean P@k of the authority order and of the BM25 order.
type linkFreeCell struct {
	terms, k, n int
	auth, bm25  float64
}

// linkFreePrecision runs the link-free comparison; worse, when non-nil,
// degrades every authority score vector before it is ranked.
func linkFreePrecision(t *testing.T, worse degrade) []linkFreeCell {
	type cell struct{ auth, bm25 []float64 }
	var p5, p10 [2]cell // by query length − 1
	for seed := int64(1); seed <= evidenceSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := evidenceEngine(t, "linkless", 0.2, seed)
		g := e.Pin().Corpus().Graph()
		docType, _ := g.Schema().TypeByName("Document")
		topics := plantedTopics(g, docType)
		for topic := 0; topic < datagen.NumTopics(); topic++ {
			rel := relevantTo(topics, topic)
			for terms := 1; terms <= 2; terms++ {
				res := solveMode(t, e, ir.NewQuery(datagen.TopicQuery(topic, terms)...), core.ModeAuthority)
				if worse != nil {
					worse(res.Scores, rng)
				}
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
	var out []linkFreeCell
	for terms := 1; terms <= 2; terms++ {
		for _, row := range []struct {
			k int
			c cell
		}{{5, p5[terms-1]}, {10, p10[terms-1]}} {
			out = append(out, linkFreeCell{terms, row.k, len(row.c.auth), eval.Mean(row.c.auth), eval.Mean(row.c.bm25)})
		}
	}
	return out
}

// TestEvidenceLinkFreeAuthority is Kurland & Lee's claim:
// on a corpus with no links at all, authority flowing over the tf-idf
// knn cluster graph ranks at least as precisely as the initial
// retrieval it re-ranks (the BM25 order of the base set).
func TestEvidenceLinkFreeAuthority(t *testing.T) {
	for _, c := range linkFreePrecision(t, nil) {
		t.Logf("linkless, %d-term queries: P@%d authority %.3f, BM25 %.3f (n=%d)", c.terms, c.k, c.auth, c.bm25, c.n)
		if c.auth < c.bm25 {
			t.Errorf("%d-term P@%d: authority over the knn graph %.3f < BM25 base-set order %.3f — link-free authority no longer earns its keep",
				c.terms, c.k, c.auth, c.bm25)
		}
	}
}

// TestEvidenceLinkFreeAuthorityBites checks the comparison can fail:
// with every authority ranking shuffled into a random one, BM25 beats it
// in every cell.
func TestEvidenceLinkFreeAuthorityBites(t *testing.T) {
	for _, c := range linkFreePrecision(t, shuffled) {
		t.Logf("shuffled authority, %d-term queries: P@%d %.3f, BM25 %.3f", c.terms, c.k, c.auth, c.bm25)
		if c.auth >= c.bm25 {
			t.Errorf("%d-term P@%d: a shuffled authority ranking %.3f still holds BM25's %.3f", c.terms, c.k, c.auth, c.bm25)
		}
	}
}

// hubPrecision runs the hub-versus-authority comparison and returns each
// mode's mean P@10 among papers; worse, when non-nil, degrades every hub
// score vector before it is ranked.
func hubPrecision(t *testing.T, worse degrade) (auth, hub float64, n int) {
	modes := []core.Mode{core.ModeAuthority, core.ModeHub}
	p10 := make(map[core.Mode][]float64)
	for seed := int64(1); seed <= evidenceSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := evidenceEngine(t, "dblptop", 0.05, seed)
		g := e.Pin().Corpus().Graph()
		paper, _ := g.Schema().TypeByName("Paper")
		topics := plantedTopics(g, paper)
		for topic := 0; topic < datagen.NumTopics(); topic++ {
			rel := relevantTo(topics, topic)
			for terms := 1; terms <= 2; terms++ {
				q := ir.NewQuery(datagen.TopicQuery(topic, terms)...)
				for _, m := range modes {
					res := solveMode(t, e, q, m)
					if worse != nil && m == core.ModeHub {
						worse(res.Scores, rng)
					}
					p10[m] = append(p10[m], eval.PrecisionAtK(res.TopKOfType(g, paper, 10), rel, 10))
					e.Release(res)
				}
			}
		}
	}
	return eval.Mean(p10[core.ModeAuthority]), eval.Mean(p10[core.ModeHub]), len(p10[core.ModeAuthority])
}

// TestEvidenceHubMode records the claim that keeps mode=hub, its cache
// keys and its route keys in the tree: among the Paper nodes of the
// bibliographic corpus, the reverse flow (CheiRank) ranks at least as
// precisely as authority alone.
func TestEvidenceHubMode(t *testing.T) {
	auth, hub, n := hubPrecision(t, nil)
	t.Logf("dblptop papers: P@10 authority %.3f, hub %.3f (n=%d)", auth, hub, n)
	if hub < auth {
		t.Errorf("P@10 hub %.3f < authority %.3f — hub mode no longer earns its cache keys, route keys and contract rows", hub, auth)
	}
}

// TestEvidenceHubModeBites checks the comparison can fail: with every hub
// ranking shuffled into a random one, authority beats it.
func TestEvidenceHubModeBites(t *testing.T) {
	auth, hub, _ := hubPrecision(t, shuffled)
	t.Logf("shuffled hub: P@10 authority %.3f, hub %.3f", auth, hub)
	if hub >= auth {
		t.Errorf("a shuffled hub ranking's P@10 %.3f still holds authority's %.3f", hub, auth)
	}
}

package experiments

import (
	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/rank"
)

// BaselinesResult extends the Table 2 comparison with the second
// related-work baseline: HITS authority ranking on the focused
// subgraph of the base set ([Kle99]).
type BaselinesResult struct {
	Queries []string
	OR2     []float64
	OR      []float64
	HITS    []float64
	TSPR    []float64
	AvgOR2  float64
	AvgOR   float64
	AvgHITS float64
	AvgTSPR float64
}

// ExtensionBaselines runs the Table 2 protocol with four systems:
// ObjectRank2, the modified original ObjectRank (Eq. 16), HITS
// authority ranking on the focused base-set subgraph ([Kle99]), and
// topic-sensitive PageRank ([Hav02], per-topic biased vectors mixed by
// base-set overlap). The related-work section of the paper argues
// query-specific, type-aware authority flow beats both type-blind link
// analysis and fixed-topic biasing; the scores quantify by how much
// under the same topical-relevance proxy.
func ExtensionBaselines(cfg Config) (*BaselinesResult, error) {
	cfg = cfg.withDefaults(surveyScale)
	gen := datagen.DBLPTopConfig().Scale(cfg.Scale)
	gen.Seed = cfg.Seed + 1
	ds, err := datagen.GenerateDBLP(gen)
	if err != nil {
		return nil, err
	}
	w, err := expertWorld(cfg, ds, "Paper", 20)
	if err != nil {
		return nil, err
	}
	g := ds.Graph

	queries := []string{
		"olap", "query optimization", "xml", "mining",
		"proximity search", "xml indexing", "ranked search",
	}
	out := &BaselinesResult{Queries: queries}
	const k = 10

	// Topic-sensitive PageRank setup: one biased vector per generator
	// topic, with topic node sets from the topical proxy.
	var topicNames []string
	var topicNodes [][]graph.NodeID
	for ti := 0; ti < datagen.NumTopics(); ti++ {
		topicNames = append(topicNames, datagen.TopicName(ti))
		pool := map[string]bool{}
		for _, tw := range datagen.TopicWords(ti) {
			pool[tw] = true
		}
		var nodes []graph.NodeID
		for _, p := range g.NodesOfType(w.resultType) {
			distinct := map[string]bool{}
			for _, tok := range ir.Tokenize(g.Attr(p, "Title")) {
				if pool[tok] {
					distinct[tok] = true
				}
			}
			if len(distinct) >= 2 {
				nodes = append(nodes, p)
			}
		}
		topicNodes = append(topicNodes, nodes)
	}
	tspr := BuildTopicSensitive(g, ds.Rates, topicNames, topicNodes, cfg.engineConfig().Rank)

	cfg.printf("Extension: baselines, relevant results in top-%d\n", k)
	cfg.printf("%-22s %12s %12s %12s %12s\n", "query", "ObjectRank2", "ObjectRank", "HITS", "TSPR")
	for _, raw := range queries {
		q := ir.ParseQuery(raw)
		relevant := topicalRelevance(g, w.resultType, q)

		r2, err := solveOne(w.sys, core.SolveSpec{Queries: []*ir.Query{q}})
		if err != nil {
			return nil, err
		}
		p2 := float64(countRelevant(r2.TopKOfType(g, w.resultType, k), relevant))
		r1 := w.sys.ObjectRankBaseline(q)
		p1 := float64(countRelevant(r1.TopKOfType(g, w.resultType, k), relevant))
		rh := HITSBaseline(w.sys, q, 2)
		ph := float64(countRelevant(rh.TopKOfType(g, w.resultType, k), relevant))

		var baseNodes []graph.NodeID
		for _, sd := range w.sys.BaseSet(q) {
			baseNodes = append(baseNodes, graph.NodeID(sd.Doc))
		}
		weights := TopicWeightsByOverlap(baseNodes, topicNodes)
		tScores := tspr.Scores(weights)
		pt := float64(countRelevant(rank.TopKOfType(g, tScores, w.resultType, k), relevant))

		out.OR2 = append(out.OR2, p2)
		out.OR = append(out.OR, p1)
		out.HITS = append(out.HITS, ph)
		out.TSPR = append(out.TSPR, pt)
		cfg.printf("%-22s %12.0f %12.0f %12.0f %12.0f\n", "["+raw+"]", p2, p1, ph, pt)
	}
	out.AvgOR2 = eval.Mean(out.OR2)
	out.AvgOR = eval.Mean(out.OR)
	out.AvgHITS = eval.Mean(out.HITS)
	out.AvgTSPR = eval.Mean(out.TSPR)
	cfg.printf("%-22s %12.2f %12.2f %12.2f %12.2f\n", "average", out.AvgOR2, out.AvgOR, out.AvgHITS, out.AvgTSPR)
	return out, nil
}

package experiments

import (
	"math"

	"authorityflow/internal/core"
	"authorityflow/internal/eval"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
)

// BaselinesResult extends the Table 2 comparison with the second
// related-work baseline: HITS authority ranking on the focused
// subgraph of the base set ([Kle99]).
type BaselinesResult struct {
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
	w, err := table2World(cfg)
	if err != nil {
		return nil, err
	}
	out := &BaselinesResult{}
	pin := w.sys.Pin()
	topicNodes := topicNodeSets(w.ds.Graph, w.resultType)
	tspr, err := BuildTopicSensitive(pin, topicNodes)
	if err != nil {
		return nil, err
	}

	cfg.printf("Extension: baselines, relevant results in top-%d\n", table2K)
	cfg.printf("%-22s %12s %12s %12s %12s\n", "query", "ObjectRank2", "ObjectRank", "HITS", "TSPR")
	for _, raw := range table2Queries {
		q := ir.ParseQuery(raw)
		relevant, p2, p1, err := w.table2Row(pin, q)
		if err != nil {
			return nil, err
		}
		ph := w.relevantInTop(HITSBaseline(pin, q, 2).Scores, relevant)
		pt := w.relevantInTop(tspr.Scores(TopicWeightsByOverlap(nodesOf(pin.BaseSet(q)), topicNodes)), relevant)

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

// objectRankBaseline runs the modified original ObjectRank of Equation
// 16 under pin, the Table 2 baseline: each keyword t of q is the
// original [BHP04] ObjectRank of its 0/1 base set S(t), one cold Solve
// column (solveOver), and the columns combine as
//
//	r(v) = prod_t r_t(v)^g(t),  g(t) = 1/log(|S(t)|)
//
// so that popular keywords (large base sets, hence skewed scores) do
// not dominate the conjunction. Iterations is the sum over keywords.
func objectRankBaseline(pin *core.Pinned, q *ir.Query) (*core.RankResult, error) {
	combined := make([]float64, pin.Corpus().Graph().NumNodes())
	for i := range combined {
		combined[i] = 1
	}
	out := &core.RankResult{Query: q, Scores: combined, Converged: true, RatesVersion: pin.Version(), Generation: pin.Generation()}
	for _, t := range q.Terms() {
		nodes := nodesOf(pin.BaseSet(ir.NewQuery(t)))
		r, err := solveOver(pin, nodes)
		if err != nil {
			return nil, err
		}
		out.Iterations += r.Iterations
		out.Converged = out.Converged && r.Converged
		exp := normalizingExponent(len(nodes))
		for v := range combined {
			combined[v] *= math.Pow(r.Scores[v], exp)
		}
	}
	return out, nil
}

// solveOver solves, as one cold Solve column under pin, the fixpoint
// whose jump spreads evenly over nodes: the original [BHP04] ObjectRank
// of a 0/1 base set, or a topic's topic-sensitive PageRank vector. An
// empty set solves to zeros.
func solveOver(pin *core.Pinned, nodes []graph.NodeID) (*core.RankResult, error) {
	jump := make([]float64, pin.Corpus().Graph().NumNodes())
	for _, v := range nodes {
		jump[v] = 1 / float64(len(nodes))
	}
	return solveOne(pin, core.SolveSpec{Jump: jump, Cold: true})
}

// nodesOf lists a base set's nodes.
func nodesOf(base []ir.ScoredDoc) []graph.NodeID {
	nodes := make([]graph.NodeID, len(base))
	for i, sd := range base {
		nodes[i] = graph.NodeID(sd.Doc)
	}
	return nodes
}

// normalizingExponent returns g(t) = 1/log(|S(t)|), clamped to 1 for
// base sets too small for the logarithm to exceed 1.
//
// This deliberately DEVIATES from a literal reading of Equation 16 for
// |S(t)| <= 2 (and is undefined there in the paper): ln(0) and ln(1)
// make g infinite or divide by zero, and ln(2) ≈ 0.693 would give an
// exponent g ≈ 1.44 > 1, i.e. a rare keyword would have its (already
// < 1) scores shrunk MORE than a common one — the opposite of the
// normalization's stated purpose of damping popular keywords. Clamping
// to exponent 1 (use the raw score) keeps g monotonically
// non-increasing in base-set size and exactly matches the paper from
// |S(t)| = 3 (the first size with ln > 1) upward. Golden values for
// sizes 0..3 are pinned by TestNormalizingExponentGolden; the rationale
// is recorded in DESIGN.md §2.
func normalizingExponent(baseSize int) float64 {
	if baseSize <= 0 {
		return 1
	}
	l := math.Log(float64(baseSize))
	if l <= 1 {
		return 1
	}
	return 1 / l
}
